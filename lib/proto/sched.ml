(* The cross-query round scheduler: queries park at their phase barriers
   and a single shipper domain merges everything parked into one
   multiplexed S2 trip. See sched.mli for the contract and DESIGN.md
   section 4h for the design discussion.

   Concurrency shape: callers (worker domains) enqueue one op at a time
   under [lock] and block on a write-once cell; the shipper domain is
   the only thread that dequeues, the only one that touches the backend,
   and therefore the only writer on a socket backend's fd. OCaml's
   stdlib [Condition] has no timed wait, so the window timer is a
   self-pipe + [Unix.select]: submissions write a wake byte, the shipper
   selects with the remaining-window timeout. *)

(* Each parked entry remembers the collector that was current on the
   submitting domain: a local (in-process) backend installs it around
   the op so S2-side crypto ops land in the query's own report, exactly
   as they would on the Inproc transport. Socket backends ignore it (S2
   counts daemon-side there, coalescing or not). *)
type backend = (Wire.mux_op * Obs.Collector.t option) list -> Wire.mux_reply list

type entry = {
  op : Wire.mux_op;
  col : Obs.Collector.t option;
  cell : (Wire.mux_reply, exn) result Core.Ivar.t;
  at : float; (* submission time, drives the window timer *)
}

exception Backend_lost of string

type t = {
  backend : backend;
  window_us : int;
  rtt_us : int;
  lock : Mutex.t;
  q : entry Queue.t;
  mutable registered : int; (* queries opened and not yet closed *)
  mutable next_session : int;
  mutable stopping : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  live : (int, unit) Hashtbl.t;
      (* sessions opened on the current backend connection; shipper-only.
         Reset when the backend reports [Backend_lost]: the replacement
         connection has never heard of those sessions, so their remaining
         ops are answered locally instead of shipped. *)
  parked_g : Obs.Registry.gauge;
  trips_c : Obs.Registry.counter;
  saved_c : Obs.Registry.counter;
  mutable shipper : unit Domain.t option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* call under [t.lock]; the registry has its own inner mutex *)
let update_parked t = Obs.Registry.set t.parked_g (float_of_int (Queue.length t.q))

(* Both pipe ends are non-blocking: a full pipe makes this write fail
   with EAGAIN (harmless — a byte is already in there, so the shipper's
   select fires) instead of blocking under [t.lock], which would
   deadlock the shipper against every submitter. *)
let wake t = try ignore (Unix.write_substring t.wake_w "w" 0 1) with Unix.Unix_error _ -> ()

let drain_wake t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.wake_r buf 0 256 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> () (* EAGAIN: drained *)
  in
  go ()

let await_wake t timeout =
  match Unix.select [ t.wake_r ] [] [] timeout with
  | [], _, _ -> ()
  | _ready, _, _ -> drain_wake t
  | exception Unix.Unix_error (EINTR, _, _) -> ()

let is_req op = match op with Wire.Mux_req _ -> true | _ -> false

(* Sessions an op refers to that must already be live on the backend
   connection (created sessions — an open's id, a fork's child — are
   deliberately absent: they work on any connection, old or fresh). *)
let op_uses = function
  | Wire.Mux_open _ -> []
  | Wire.Mux_close { session } | Wire.Mux_req { session; _ } -> [ session ]
  | Wire.Mux_fork { parent; _ } -> [ parent ]
  | Wire.Mux_join { parent; child } -> [ parent; child ]

let op_opens = function
  | Wire.Mux_open { session } | Wire.Mux_fork { child = session; _ } -> Some session
  | _ -> None

let op_retires = function
  | Wire.Mux_close { session } | Wire.Mux_join { child = session; _ } -> Some session
  | _ -> None

(* One merged trip. A backend failure (desynced daemon, closed socket)
   answers every parked caller with the exception instead of killing the
   shipper: subsequent submissions keep getting a typed answer. A
   [Backend_lost] failure additionally retires every live session — the
   backend's next call runs on a fresh connection that has never heard
   of them, so their remaining ops (a straggler's next round, cleanup
   closes) are answered locally with a typed error instead of shipped,
   where they would desync the replacement connection too. *)
let stale_error =
  Proto_error.Proto_error "Sched: session lost (S2 connection was re-established)"

let ship t batch =
  let fresh, stale =
    List.partition (fun e -> List.for_all (Hashtbl.mem t.live) (op_uses e.op)) batch
  in
  List.iter (fun e -> Core.Ivar.fill e.cell (Error stale_error)) stale;
  if fresh <> [] then begin
    let replies =
      try Ok (t.backend (List.map (fun e -> (e.op, e.col)) fresh)) with e -> Error e
    in
    if t.rtt_us > 0 then Unix.sleepf (float_of_int t.rtt_us *. 1e-6);
    Obs.Registry.inc t.trips_c;
    Obs.Registry.add t.saved_c
      (max 0 (List.length (List.filter (fun e -> is_req e.op) fresh) - 1));
    match replies with
    | Ok rs when List.length rs = List.length fresh ->
      List.iter
        (fun e ->
          (match op_opens e.op with Some s -> Hashtbl.replace t.live s () | None -> ());
          match op_retires e.op with Some s -> Hashtbl.remove t.live s | None -> ())
        fresh;
      List.iter2 (fun e r -> Core.Ivar.fill e.cell (Ok r)) fresh rs
    | Ok _ ->
      let e = Proto_error.Proto_error "Sched: mux reply count mismatch" in
      List.iter (fun en -> Core.Ivar.fill en.cell (Error e)) fresh
    | Error (Backend_lost reason) ->
      Hashtbl.reset t.live;
      let e = Proto_error.Proto_error ("Sched: S2 connection lost: " ^ reason) in
      List.iter (fun en -> Core.Ivar.fill en.cell (Error e)) fresh
    | Error e -> List.iter (fun en -> Core.Ivar.fill en.cell (Error e)) fresh
  end

(* Ship policy: immediately once every registered query is parked (one
   outstanding op per query, so queue length >= registered means nobody
   is still computing), else when the oldest parked entry has waited the
   window out. [window_us = 0] degrades to ship-whatever-is-parked on
   every wake — still coalescing whatever arrives between trips. *)
let rec shipper_loop t =
  Mutex.lock t.lock;
  let n = Queue.length t.q in
  if t.stopping && n = 0 then Mutex.unlock t.lock
  else begin
    let now = Unix.gettimeofday () in
    let ready =
      n > 0
      && (t.stopping || n >= t.registered || t.window_us = 0
         || (now -. (Queue.peek t.q).at) *. 1e6 >= float_of_int t.window_us)
    in
    if ready then begin
      let batch = List.of_seq (Queue.to_seq t.q) in
      Queue.clear t.q;
      update_parked t;
      Mutex.unlock t.lock;
      ship t batch;
      shipper_loop t
    end
    else begin
      let timeout =
        if n = 0 then -1.
        else
          max 20e-6
            ((float_of_int t.window_us *. 1e-6) -. (now -. (Queue.peek t.q).at))
      in
      Mutex.unlock t.lock;
      await_wake t timeout;
      shipper_loop t
    end
  end

let create ?(window_us = 150) ?(rtt_us = 0) ?registry ~backend () =
  let reg = match registry with Some r -> r | None -> Obs.Registry.create () in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      backend;
      window_us = max 0 window_us;
      rtt_us = max 0 rtt_us;
      lock = Mutex.create ();
      q = Queue.create ();
      registered = 0;
      next_session = 0;
      stopping = false;
      wake_r;
      wake_w;
      live = Hashtbl.create 16;
      parked_g = Obs.Registry.gauge reg "parked_queries";
      trips_c = Obs.Registry.counter reg "coalesced_rounds";
      saved_c = Obs.Registry.counter reg "rounds_saved";
      shipper = None;
    }
  in
  t.shipper <- Some (Domain.spawn (fun () -> shipper_loop t));
  t

let enqueue t op =
  let cell = Core.Ivar.create () in
  let col = Obs.current () in
  locked t (fun () ->
      if t.stopping then raise (Proto_error.Proto_error "Sched: scheduler stopped");
      Queue.add { op; col; cell; at = Unix.gettimeofday () } t.q;
      update_parked t;
      wake t);
  cell

let await cell = match Core.Ivar.read cell with Ok r -> r | Error e -> raise e

let submit t op = await (enqueue t op)

let expect_ok = function
  | Wire.Mux_ok -> ()
  | Wire.Mux_answer _ -> raise (Proto_error.Proto_error "Sched: unexpected mux answer")

let alloc_session t =
  locked t (fun () ->
      t.next_session <- t.next_session + 1;
      t.next_session)

(* Registration and the open op land in one critical section, so the
   all-parked check can never see the new query registered but its open
   not yet parked (or vice versa). *)
let open_query t =
  let cell = Core.Ivar.create () in
  let col = Obs.current () in
  let session =
    locked t (fun () ->
        if t.stopping then raise (Proto_error.Proto_error "Sched: scheduler stopped");
        t.next_session <- t.next_session + 1;
        let session = t.next_session in
        t.registered <- t.registered + 1;
        Queue.add
          { op = Wire.Mux_open { session }; col; cell; at = Unix.gettimeofday () }
          t.q;
        update_parked t;
        wake t;
        session)
  in
  (* on a failed open nothing will ever close this session: undo the
     registration so the all-parked fast path keeps firing *)
  (try expect_ok (await cell)
   with e ->
     locked t (fun () -> t.registered <- max 0 (t.registered - 1));
     raise e);
  session

let close_query t session =
  let cell = Core.Ivar.create () in
  let col = Obs.current () in
  locked t (fun () ->
      if t.stopping then raise (Proto_error.Proto_error "Sched: scheduler stopped");
      t.registered <- max 0 (t.registered - 1);
      Queue.add
        { op = Wire.Mux_close { session }; col; cell; at = Unix.gettimeofday () }
        t.q;
      update_parked t;
      wake t);
  expect_ok (await cell)

let stop t =
  let shipper =
    locked t (fun () ->
        t.stopping <- true;
        wake t;
        let s = t.shipper in
        t.shipper <- None;
        s)
  in
  match shipper with
  | None -> ()
  | Some d ->
    Domain.join d;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ())

(* The socket backend: one merged frame out, one merged frame back. The
   shipper is the only thread touching [fd]. *)
let socket_backend keys fd ops =
  Wire.write_frame fd (Wire.encode_mux keys (List.map fst ops));
  match Wire.read_frame fd with
  | None -> raise (Proto_error.Proto_error "Sched: S2 closed the connection")
  | Some frame ->
    let replies = Wire.decode_mux_replies keys frame in
    if List.length replies <> List.length ops then
      raise (Proto_error.Proto_error "Sched: mux reply count mismatch");
    replies
