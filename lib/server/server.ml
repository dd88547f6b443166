(* The S1 serving front-end: listener -> per-connection sessions ->
   bounded Core.Service crew.  See server.mli for the contract.

   Concurrency shape: the listener domain accepts and spawns one session
   domain per connection (answering Busy and closing when the runtime has
   no domain left to spawn, backing off when accept finds no descriptor);
   a session reads one Query_req at a time, submits the query as a job,
   and blocks on an ivar for the response — so frames on one connection
   never interleave.  Overload is decided at submission ([`Busy] written
   immediately).  A running query's fan-outs borrow the crew's parked
   workers, so the crew is the process's only pool of compute domains.
   Shutdown drains in order: listener first, then the worker pool
   (in-flight queries complete and their responses are written), then
   idle sessions are unblocked by shutting their sockets down. *)

open Proto
module Qlog = Qlog

type s2_mode = Local | Tcp of Unix.sockaddr
type index = Single of Store.t | Sharded of Store.t array

type config = {
  seed : string;
  key_bits : int;
  rand_bits : int option;
  blind_bits : int;
  workers : int;
  queue_depth : int;
  options : Sectopk.Query.options;
  s2 : s2_mode;
  qlog : Qlog.config;
  coalesce_window_us : int;  (* round-coalescing window; 0 = ship on every wake *)
}

let default_config =
  {
    seed = "serve";
    key_bits = 128;
    rand_bits = Some 96;
    blind_bits = 48;
    workers = 2;
    queue_depth = 8;
    options = Sectopk.Query.default_options;
    s2 = Local;
    qlog = Qlog.default_config;
    coalesce_window_us = 150;
  }

type stats = {
  served : int;
  busy : int;
  errors : int;
  queue_seconds : float;
  query_seconds : float;
}

(* Live telemetry.  The registry is per-server (tests run several servers
   in one process; a process global would bleed counts between them) and
   its own mutex guards every mutation, so a scrape never sees a torn
   histogram even while worker domains are recording.  Histograms are
   recorded unconditionally — they are integer bucket increments, cheap
   enough to leave on when [Obs] is off. *)
type telemetry = {
  reg : Obs.Registry.t;
  served_c : Obs.Registry.counter;
  busy_c : Obs.Registry.counter;
  errors_c : Obs.Registry.counter;
  queue_depth_g : Obs.Registry.gauge;  (* admitted, not yet running *)
  in_flight_g : Obs.Registry.gauge;  (* running on a worker domain *)
  open_sessions_g : Obs.Registry.gauge;
  worker_util_g : Obs.Registry.gauge;  (* in-flight / workers *)
  queue_wait_h : Obs.Registry.histogram;  (* admission-to-start, µs *)
  exec_h : Obs.Registry.histogram;  (* start-to-response, µs *)
  rounds_h : Obs.Registry.histogram;  (* S1<->S2 rounds per query *)
  bytes_h : Obs.Registry.histogram;  (* S1<->S2 bytes per query *)
  depth_h : Obs.Registry.histogram;  (* halting depth per query *)
  shards_g : Obs.Registry.gauge;  (* shard count of the served index *)
  shard_queries_c : Obs.Registry.counter;  (* shard depth loops driven *)
  shard_merge_rounds_c : Obs.Registry.counter;  (* coordinator checkpoint merges *)
  accept_errors_c : Obs.Registry.counter;  (* accepts refused for want of descriptors *)
}

let make_telemetry () =
  let reg = Obs.Registry.create () in
  {
    reg;
    served_c = Obs.Registry.counter reg "served";
    busy_c = Obs.Registry.counter reg "busy";
    errors_c = Obs.Registry.counter reg "errors";
    queue_depth_g = Obs.Registry.gauge reg "queue_depth";
    in_flight_g = Obs.Registry.gauge reg "in_flight_queries";
    open_sessions_g = Obs.Registry.gauge reg "open_sessions";
    worker_util_g = Obs.Registry.gauge reg "worker_utilization";
    queue_wait_h = Obs.Registry.histogram reg "queue_wait_us";
    exec_h = Obs.Registry.histogram reg "exec_us";
    rounds_h = Obs.Registry.histogram reg "query_rounds";
    bytes_h = Obs.Registry.histogram reg "query_bytes";
    depth_h = Obs.Registry.histogram reg "query_depth";
    shards_g = Obs.Registry.gauge reg "shards";
    shard_queries_c = Obs.Registry.counter reg "shard_queries";
    shard_merge_rounds_c = Obs.Registry.counter reg "shard_merge_rounds";
    accept_errors_c = Obs.Registry.counter reg "accept_errors";
  }

type t = {
  cfg : config;
  ers : Sectopk.Scheme.encrypted_relation array;  (* one per shard *)
  shape : Wire.server_msg;  (* the Server_hello sent to every client *)
  derived : Ctx.derived;  (* what every query's context starts from *)
  lsock : Unix.file_descr;
  lport : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  service : Core.Service.t;
  sched : Sched.t;  (* shared round scheduler: every query's S2 path *)
  sched_fd : Unix.file_descr option ref;
      (* its current S2 connection (Tcp mode); the backend swaps it on
         reconnect, [shutdown] closes whatever is live after Sched.stop *)
  collector : Obs.Collector.t;
  tel : telemetry;
  qlog : Qlog.t;
  lock : Mutex.t;
  settled : Condition.t;  (* signalled when pending responses hit zero *)
  mutable conns : (int * Unix.file_descr) list;
  mutable next_conn : int;
  mutable sessions : (int * unit Domain.t) list;
  mutable reaped : unit Domain.t list;  (* finished sessions awaiting join *)
  mutable listener : unit Domain.t option;
  mutable draining : bool;
  mutable pending : int;  (* accepted queries whose response is not yet written *)
  mutable running : int;  (* queries executing on a worker domain *)
  mutable next_seq : int;  (* query sequence numbers, admitted and busy *)
}

let port t = t.lport
let registry t = t.tel.reg

(* The historical scalar record, derived from the registry: counters read
   directly, the float second totals recovered from the microsecond
   histogram sums.  One snapshot, so the view is internally consistent. *)
let stats t =
  let snap = Obs.Registry.snapshot t.tel.reg in
  let cnt name =
    match List.assoc_opt name snap with Some (Obs.Registry.Counter v) -> v | _ -> 0
  in
  let hist_sum_seconds name =
    match List.assoc_opt name snap with
    | Some (Obs.Registry.Histogram d) -> float_of_int d.Obs.Registry.hsum /. 1e6
    | _ -> 0.
  in
  {
    served = cnt "served";
    busy = cnt "busy";
    errors = cnt "errors";
    queue_seconds = hist_sum_seconds "queue_wait_us";
    query_seconds = hist_sum_seconds "exec_us";
  }

let obs t = t.collector

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Call under [t.lock]; the registry has its own (inner) mutex. *)
let update_load_gauges t =
  Obs.Registry.set t.tel.queue_depth_g (float_of_int (max 0 (t.pending - t.running)));
  Obs.Registry.set t.tel.in_flight_g (float_of_int t.running);
  Obs.Registry.set t.tel.worker_util_g
    (float_of_int t.running /. float_of_int t.cfg.workers)

(* ---- per-query execution (worker domain) ------------------------------- *)

(* Per-query channel totals: what this query shipped to and from S2. *)
type query_meta = { depth : int; halted : bool; rounds : int; bytes : int }

let run_query t tk =
  (* Park this query's rounds at the shared scheduler. The Mux_open makes
     S2 start the same responder the Inproc transport would build, so
     results and traces are byte-identical to the sequential path. *)
  let session = Sched.open_query t.sched in
  Fun.protect
    ~finally:(fun () -> try Sched.close_query t.sched session with _ -> ())
    (fun () ->
      (* from copies of the derived generators: the state a fresh
         provision reaches. At the crew's width: the query's fan-outs
         borrow whichever other workers are parked (Core.Pool) *)
      let qctx =
        Ctx.of_derived ~blind_bits:t.cfg.blind_bits ~domains:t.cfg.workers
          ~mode:(Ctx.Mux (t.sched, session)) t.derived
      in
      let res, shard_stats = Shard.run_with_stats qctx t.ers tk t.cfg.options in
      Obs.Registry.add t.tel.shard_queries_c shard_stats.Shard.shards;
      Obs.Registry.add t.tel.shard_merge_rounds_c shard_stats.Shard.merge_rounds;
      let ch = Ctx.channel qctx in
      ( Wire.Query_resp
          {
            top = res.Sectopk.Query.top;
            halting_depth = res.Sectopk.Query.halting_depth;
            halted = res.Sectopk.Query.halted;
          },
        Some
          {
            depth = res.Sectopk.Query.halting_depth;
            halted = res.Sectopk.Query.halted;
            rounds = Channel.rounds_total ch;
            bytes = Channel.bytes_total ch;
          } ))

let usec s = int_of_float ((s *. 1e6) +. 0.5)

let job t tk ~conn ~seq ~submitted cell =
  let t0 = Unix.gettimeofday () in
  locked t (fun () ->
      t.running <- t.running + 1;
      update_load_gauges t);
  (* per-query collector when Obs is on: feeds the merged server
     collector, slow-query reports and sampled traces *)
  let col = if Obs.is_enabled () then Some (Obs.Collector.create ()) else None in
  let resp, meta =
    try
      match col with
      | Some c ->
        Obs.with_collector c (fun () -> Obs.span "serve:query" (fun () -> run_query t tk))
      | None -> run_query t tk
    with
    | Store.Error e -> (Wire.Server_error (Store.error_message e), None)
    | Invalid_argument msg -> (Wire.Server_error msg, None)
    (* typed protocol desync (hostile/desynced S2, wrong batch or mux
       arity): degrade this query, keep the session domain alive *)
    | Proto_error.Proto_error msg -> (Wire.Server_error msg, None)
    | e -> (Wire.Server_error (Printexc.to_string e), None)
  in
  let t1 = Unix.gettimeofday () in
  let queue_us = usec (t0 -. submitted) and exec_us = usec (t1 -. t0) in
  let tel = t.tel in
  (match resp with
  | Wire.Server_error _ -> Obs.Registry.inc tel.errors_c
  | _ -> Obs.Registry.inc tel.served_c);
  Obs.Registry.observe tel.queue_wait_h queue_us;
  Obs.Registry.observe tel.exec_h exec_us;
  (match meta with
  | Some m ->
    Obs.Registry.observe tel.rounds_h m.rounds;
    Obs.Registry.observe tel.bytes_h m.bytes;
    Obs.Registry.observe tel.depth_h m.depth
  | None -> ());
  (match col with
  | Some c ->
    Qlog.maybe_trace t.qlog ~seq c;
    if Qlog.is_slow t.qlog ~exec_us then Qlog.log_slow t.qlog ~seq ~exec_us c;
    locked t (fun () -> Obs.Collector.merge_into c ~into:t.collector)
  | None -> ());
  Qlog.log t.qlog
    {
      Qlog.seq;
      conn;
      k = tk.Sectopk.Scheme.k;
      attrs = List.length tk.Sectopk.Scheme.attrs;
      rounds = (match meta with Some m -> m.rounds | None -> 0);
      bytes = (match meta with Some m -> m.bytes | None -> 0);
      queue_us;
      exec_us;
      outcome =
        (match (resp, meta) with
        | Wire.Server_error msg, _ -> Qlog.Error msg
        | _, Some m -> Qlog.Ok { depth = m.depth; halted = m.halted }
        | _, None -> Qlog.Ok { depth = 0; halted = false });
    };
  locked t (fun () ->
      t.running <- t.running - 1;
      update_load_gauges t);
  Core.Ivar.fill cell resp

(* ---- sessions (one domain per connection) ------------------------------ *)

let settle t =
  locked t (fun () ->
      t.pending <- t.pending - 1;
      update_load_gauges t;
      if t.pending = 0 then Condition.broadcast t.settled)

let session t id fd =
  let write msg = Wire.write_frame fd (Wire.encode_server_msg (Ctx.keys t.derived) msg) in
  (try
     write t.shape;
     let rec loop () =
       match Wire.read_frame ~max:Wire.max_client_frame fd with
       | None -> ()
       | Some frame -> (
         let reject msg =
           Obs.Registry.inc t.tel.errors_c;
           write (Wire.Server_error msg)
         in
         match Wire.frame_kind frame with
         | Some 'C' ->
           (* live-telemetry scrape: any connection may ask; the reply
              carries the full registry snapshot and needs no keys *)
           (match Wire.decode_control frame with
           | Wire.Stats_req ->
             Wire.write_frame fd
               (Wire.encode_control_reply
                  (Wire.Stats_resp (Obs.Registry.snapshot t.tel.reg)))
           | _ | (exception Invalid_argument _) ->
             reject "unsupported control frame");
           loop ()
         | _ -> (
           match Wire.decode_client_msg frame with
           | exception Invalid_argument msg ->
             (* a malformed frame is answered, not fatal: keep serving *)
             reject msg;
             loop ()
           | Wire.Query_req { token } -> (
             match Sectopk.Codec.decode_token token with
             | exception Invalid_argument msg ->
               (* still a query: it gets a sequence number and a log
                  entry, with zero token shape (it never decoded) *)
               let seq =
                 locked t (fun () ->
                     let seq = t.next_seq in
                     t.next_seq <- seq + 1;
                     seq)
               in
               Qlog.log t.qlog
                 {
                   Qlog.seq;
                   conn = id;
                   k = 0;
                   attrs = 0;
                   rounds = 0;
                   bytes = 0;
                   queue_us = 0;
                   exec_us = 0;
                   outcome = Qlog.Error msg;
                 };
               reject msg;
               loop ()
             | tk ->
               let cell = Core.Ivar.create () in
               let submitted = Unix.gettimeofday () in
               let admitted =
                 locked t (fun () ->
                     let seq = t.next_seq in
                     t.next_seq <- seq + 1;
                     if t.draining then `Busy seq
                     else
                       match
                         Core.Service.submit t.service (fun () ->
                             job t tk ~conn:id ~seq ~submitted cell)
                       with
                       | `Accepted ->
                         t.pending <- t.pending + 1;
                         update_load_gauges t;
                         `Accepted
                       | `Busy -> `Busy seq)
               in
               (match admitted with
               | `Busy seq ->
                 Obs.Registry.inc t.tel.busy_c;
                 Qlog.log t.qlog
                   {
                     Qlog.seq;
                     conn = id;
                     k = tk.Sectopk.Scheme.k;
                     attrs = List.length tk.Sectopk.Scheme.attrs;
                     rounds = 0;
                     bytes = 0;
                     queue_us = 0;
                     exec_us = 0;
                     outcome = Qlog.Busy;
                   };
                 write Wire.Busy
               | `Accepted ->
                 let resp = Core.Ivar.read cell in
                 Fun.protect ~finally:(fun () -> settle t) (fun () -> write resp));
               if not t.draining then loop ())))
     in
     loop ()
   with
  | Unix.Unix_error (_, _, _) | Invalid_argument _ | Sys_error _ -> ());
  (* retire: leave the connection table, hand this domain to the reaper,
     and close the fd — all under the lock, so shutdown never calls
     Unix.shutdown on a descriptor number the kernel has recycled *)
  locked t (fun () ->
      t.conns <- List.filter (fun (id', _) -> id' <> id) t.conns;
      Obs.Registry.set t.tel.open_sessions_g (float_of_int (List.length t.conns));
      let mine, rest = List.partition (fun (id', _) -> id' = id) t.sessions in
      t.sessions <- rest;
      t.reaped <- List.rev_append (List.map snd mine) t.reaped;
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

(* ---- listener ---------------------------------------------------------- *)

let listener_loop t =
  let rec loop () =
    match Unix.select [ t.lsock; t.wake_r ] [] [] (-1.) with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | ready, _, _ ->
      if List.mem t.wake_r ready then () (* drain requested *)
      else begin
        (match Transport.accept ~errors:t.tel.accept_errors_c t.lsock with
        | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
        | None -> ()
        | Some (fd, _) ->
          (* the session cannot retire before the lock is released, so
             it joins the tables only once its domain exists *)
          let accepted =
            locked t (fun () ->
                if t.draining then `Draining
                else begin
                  let id = t.next_conn in
                  t.next_conn <- id + 1;
                  match Domain.spawn (fun () -> session t id fd) with
                  | d ->
                    t.conns <- (id, fd) :: t.conns;
                    t.sessions <- (id, d) :: t.sessions;
                    Obs.Registry.set t.tel.open_sessions_g
                      (float_of_int (List.length t.conns));
                    `Spawned
                  | exception Failure _ -> `No_domain
                end)
          in
          match accepted with
          | `Spawned -> ()
          | `Draining -> Unix.close fd
          | `No_domain ->
            (* every domain slot of the runtime is taken: turn this
               connection away with a typed Busy and keep accepting *)
            Obs.Registry.inc t.tel.busy_c;
            (try Wire.write_frame fd (Wire.encode_server_msg (Ctx.keys t.derived) Wire.Busy)
             with Unix.Unix_error (_, _, _) -> ());
            Unix.close fd);
        (* join finished sessions so a long-running server does not
           accumulate dead domain handles *)
        let finished = locked t (fun () -> let r = t.reaped in t.reaped <- []; r) in
        List.iter Domain.join finished;
        loop ()
      end
  in
  loop ()

(* ---- lifecycle --------------------------------------------------------- *)

let start ?(port = 0) cfg index =
  if cfg.workers <= 0 then invalid_arg "Server.start: workers <= 0";
  if cfg.queue_depth < 0 then invalid_arg "Server.start: queue_depth < 0";
  let stores = match index with Single st -> [| st |] | Sharded sts -> sts in
  if Array.length stores = 0 then invalid_arg "Server.start: empty shard set";
  Array.iter
    (fun st ->
      if Store.n_attrs st <> Store.n_attrs stores.(0) || Store.cells st <> Store.cells stores.(0)
      then invalid_arg "Server.start: shards disagree on index shape")
    stores;
  (* Keys are derived once per process: every query starts from copies
     of this state (open_index already verified the store's fingerprint
     against [pub]). The derivation also runs the one global comb
     warm-up for the whole serving set, and every query after it hits
     the cache — [combs_built] must stay flat as the shard count grows. *)
  let pub, sk, ctx_rng, _ =
    Ctx.provision ~seed:cfg.seed ~key_bits:cfg.key_bits ?rand_bits:cfg.rand_bits ()
  in
  let derived, warm_s = Obs.Timer.time (fun () -> Ctx.derive ctx_rng pub sk) in
  let tel = make_telemetry () in
  Obs.Registry.set (Obs.Registry.gauge tel.reg "comb_warmup_seconds") warm_s;
  Obs.Registry.set (Obs.Registry.gauge tel.reg "combs_built")
    (float_of_int (Bignum.Fixed_base.cached_count ()));
  Obs.Registry.set tel.shards_g (float_of_int (Array.length stores));
  (* The shared round scheduler, one per S2 connection. Local mode
     demultiplexes in-process; Tcp mode opens the single connection every
     merged frame travels on. *)
  let sched, sched_fd =
    let hello =
      { Wire.seed = cfg.seed; key_bits = cfg.key_bits; rand_bits = cfg.rand_bits; obs = false }
    in
    match cfg.s2 with
    | Local ->
      (* derived once, as serve-s2 derives once per connection *)
      let make = S2_server.provision hello in
      let st = S2_server.mux_state ~make:(fun ~session:_ -> make ()) in
      ( Sched.create ~window_us:cfg.coalesce_window_us ~registry:tel.reg
          ~backend:(S2_server.handle_mux_ops st) (),
        ref None )
    | Tcp addr ->
      (* Self-healing shared connection: dial eagerly so startup still
         fails fast when S2 is down, re-dial (fresh Hello handshake) on
         the trip after a failure. Raising [Sched.Backend_lost] makes
         the scheduler fail only the sessions that lived on the dead
         connection — new queries open fresh sessions on the new one —
         and the scrapeable [s2_reconnects] counter surfaces every
         loss. Only the shipper domain calls the backend, so the cell
         needs no lock. *)
      let fd_cell = ref (Some (Transport.connect_tcp addr hello)) in
      let reconnects_c = Obs.Registry.counter tel.reg "s2_reconnects" in
      let backend ops =
        let fd =
          match !fd_cell with
          | Some fd -> fd
          | None ->
            let fd = Transport.connect_tcp addr hello in
            fd_cell := Some fd;
            fd
        in
        try Sched.socket_backend (Ctx.keys derived) fd ops
        with e ->
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
          fd_cell := None;
          Obs.Registry.inc reconnects_c;
          raise (Sched.Backend_lost (Printexc.to_string e))
      in
      (Sched.create ~window_us:cfg.coalesce_window_us ~registry:tel.reg ~backend (), fd_cell)
  in
  let lsock = Unix.socket PF_INET SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt lsock SO_REUSEADDR true;
      Unix.bind lsock (ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen lsock 16;
      let lport =
        match Unix.getsockname lsock with
        | ADDR_INET (_, p) -> p
        | _ -> invalid_arg "Server.start: unexpected socket address"
      in
      let wake_r, wake_w = Unix.pipe () in
      {
        cfg;
        ers = Array.map Store.relation stores;
        shape =
          (* clients see the logical relation: total rows over all shards *)
          Wire.Server_hello
            {
              n = Array.fold_left (fun acc st -> acc + Store.n_rows st) 0 stores;
              m = Store.n_attrs stores.(0);
              s = Store.cells stores.(0);
              key_bits = cfg.key_bits;
            };
        derived;
        lsock;
        lport;
        wake_r;
        wake_w;
        service = Core.Service.create ~domains:cfg.workers ~queue_depth:cfg.queue_depth;
        sched;
        sched_fd;
        collector = Obs.Collector.create ();
        tel;
        qlog = Qlog.create cfg.qlog;
        lock = Mutex.create ();
        settled = Condition.create ();
        conns = [];
        next_conn = 0;
        sessions = [];
        reaped = [];
        listener = None;
        draining = false;
        pending = 0;
        running = 0;
        next_seq = 0;
      }
    with e ->
      Unix.close lsock;
      Sched.stop sched;
      (match !sched_fd with
      | Some fd -> ( try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      | None -> ());
      raise e
  in
  t.listener <- Some (Domain.spawn (fun () -> listener_loop t));
  t

let shutdown t =
  let listener =
    locked t (fun () ->
        if t.draining then None
        else begin
          t.draining <- true;
          let l = t.listener in
          t.listener <- None;
          l
        end)
  in
  match listener with
  | None -> ()
  | Some l ->
    (* 1. stop accepting *)
    (try ignore (Unix.write_substring t.wake_w "x" 0 1) with Unix.Unix_error (_, _, _) -> ());
    Domain.join l;
    Unix.close t.lsock;
    (* 2. finish every admitted query *)
    Core.Service.drain t.service;
    (* 3. wait until every finished response has been written out *)
    Mutex.lock t.lock;
    while t.pending > 0 do
      Condition.wait t.settled t.lock
    done;
    Mutex.unlock t.lock;
    (* 4. no query is parked any more: retire the round scheduler and its
       S2 connection *)
    Sched.stop t.sched;
    (match !(t.sched_fd) with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    | None -> ());
    (* 5. unblock sessions parked in read_frame and join them all.  The
       fds are shut down under the lock: sessions remove and close their
       own entry under the same lock, so we can never touch a descriptor
       number the kernel has recycled. *)
    let sessions, finished =
      locked t (fun () ->
          List.iter
            (fun (_, fd) ->
              try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
            t.conns;
          let s = List.map snd t.sessions and r = t.reaped in
          t.sessions <- [];
          t.reaped <- [];
          (s, r))
    in
    List.iter Domain.join sessions;
    List.iter Domain.join finished;
    Qlog.close t.qlog;
    Unix.close t.wake_r;
    Unix.close t.wake_w
