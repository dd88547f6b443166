(* A single-threaded TCP relay that makes a loopback connection behave like
   the benchmark's emulated link (Workload.link_rtt_us, link_mbps). Each
   direction is a serial link: a chunk of b bytes read at time t starts
   transmitting when the link is free (no earlier than t), occupies it for
   8b/bandwidth, and is delivered rtt/2 after its last bit left. Delivery
   times never decrease, so byte order is kept. End of stream on either
   side closes both. *)

type chunk = { at : float; data : Bytes.t; mutable off : int }

type dir = {
  src : Unix.file_descr;
  dst : Unix.file_descr;
  q : chunk Queue.t;
  mutable free_at : float;
  mutable eof : bool;
}

type pair = { up : dir; down : dir; mutable closed : bool }

let chunk_bytes = 65536

let run ~upstream ~on_ready =
  let half_rtt = float_of_int Workload.link_rtt_us *. 0.5e-6 in
  let bits_per_s = float_of_int Workload.link_mbps *. 1e6 in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 16;
  (match Unix.getsockname lsock with
  | Unix.ADDR_INET (_, p) -> on_ready p
  | _ -> ());
  let pairs = ref [] in
  let buf = Bytes.create chunk_bytes in
  let dir src dst = { src; dst; q = Queue.create (); free_at = 0.; eof = false } in
  let accept () =
    let a, _ = Unix.accept ~cloexec:true lsock in
    let b = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect b (Unix.ADDR_INET (Unix.inet_addr_loopback, upstream));
    List.iter
      (fun fd ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.set_nonblock fd)
      [ a; b ];
    pairs := { up = dir a b; down = dir b a; closed = false } :: !pairs
  in
  let receive d now =
    match Unix.read d.src buf 0 chunk_bytes with
    | 0 -> d.eof <- true
    | n ->
      d.free_at <- Float.max now d.free_at +. (float_of_int (8 * n) /. bits_per_s);
      Queue.push { at = d.free_at +. half_rtt; data = Bytes.sub buf 0 n; off = 0 } d.q
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> d.eof <- true
  in
  let deliver d =
    let c = Queue.peek d.q in
    match Unix.single_write d.dst c.data c.off (Bytes.length c.data - c.off) with
    | n ->
      c.off <- c.off + n;
      if c.off = Bytes.length c.data then ignore (Queue.pop d.q)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ ->
      Queue.clear d.q;
      d.eof <- true
  in
  let due d now = (not (Queue.is_empty d.q)) && (Queue.peek d.q).at <= now in
  let close p =
    p.closed <- true;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ p.up.src; p.down.src ]
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    let dirs = List.concat_map (fun p -> [ p.up; p.down ]) !pairs in
    let reads = lsock :: List.filter_map (fun d -> if d.eof then None else Some d.src) dirs in
    let writes = List.filter_map (fun d -> if due d now then Some d.dst else None) dirs in
    let timeout =
      List.fold_left
        (fun acc d ->
          if Queue.is_empty d.q || due d now then acc
          else
            let wait = (Queue.peek d.q).at -. now in
            if acc < 0. then wait else Float.min acc wait)
        (-1.) dirs
    in
    (match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      let now = Unix.gettimeofday () in
      if List.mem lsock readable then accept ();
      List.iter
        (fun d ->
          if List.mem d.src readable then receive d now;
          if List.mem d.dst writable && due d now then deliver d)
        dirs);
    (* a side that hung up closes the pair once what it sent is delivered *)
    List.iter
      (fun p ->
        if (p.up.eof && Queue.is_empty p.up.q) || (p.down.eof && Queue.is_empty p.down.q) then
          close p)
      !pairs;
    pairs := List.filter (fun p -> not p.closed) !pairs;
    loop ()
  in
  loop ()
