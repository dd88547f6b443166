(* lib/server acceptance tests: a served query is byte-identical to the
   sequential in-process path, >= 4 simultaneous clients each receive
   exactly the sequential results, admission overflow is a typed [Busy]
   (never a hang, never a wrong answer), malformed frames get
   [Server_error] without killing the connection, and shutdown drains
   cleanly.  The bounded worker pool itself ([Core.Service]) is driven
   deterministically with gate-controlled jobs, and the fan-outs that
   borrow its workers ([Core.Pool]) with rendezvous items that time out
   instead of hanging. *)

open Dataset
open Topk
open Proto

let seed = "serve-test"
let key_bits = 128
let rand_bits = 96

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

(* provision once: the store the server opens, and the client-side keys *)
let pub, sk, ctx_rng0, data_rng0 = Ctx.provision ~seed ~key_bits ~rand_bits ()
let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng0 pub fig3

let wkeys = Ctx.keys (Ctx.derive ctx_rng0 pub sk)

let token = Sectopk.Codec.encode_token (Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2)

let store_dir () =
  let dir = Tmp_dirs.fresh "test_server" in
  Store.build ~dir pub er;
  dir

let cfg ?(coalesce_window_us = Server.default_config.Server.coalesce_window_us) workers
    queue_depth =
  {
    Server.default_config with
    Server.seed;
    key_bits;
    rand_bits = Some rand_bits;
    workers;
    queue_depth;
    coalesce_window_us;
  }

let with_server ?coalesce_window_us ?(workers = 2) ?(queue_depth = 8) f =
  let st = Store.open_index ~dir:(store_dir ()) pub in
  let srv = Server.start (cfg ?coalesce_window_us workers queue_depth) (Server.Single st) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Store.close st)
    (fun () -> f srv)

(* ---------------- a tiny blocking client ---------------- *)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let read_msg fd =
  match Wire.read_frame fd with
  | None -> Alcotest.fail "server closed the connection mid-exchange"
  | Some frame -> Wire.decode_server_msg wkeys frame

let with_client port f =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      (match read_msg fd with
      | Wire.Server_hello { n = 5; m = 3; s = 4; key_bits = 128 } -> ()
      | _ -> Alcotest.fail "unexpected hello");
      f fd)

let ask fd token =
  Wire.write_frame fd (Wire.encode_client_msg (Wire.Query_req { token }));
  read_msg fd

(* the sequential never-served reference: same seed, same relation *)
let expected_resp () =
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk in
  let tk = Sectopk.Codec.decode_token token in
  let res = Sectopk.Query.run ctx er tk Sectopk.Query.default_options in
  Wire.Query_resp
    {
      top = res.Sectopk.Query.top;
      halting_depth = res.Sectopk.Query.halting_depth;
      halted = res.Sectopk.Query.halted;
    }

(* byte identity, via the canonical encoding *)
let msg_eq a b = Wire.encode_server_msg wkeys a = Wire.encode_server_msg wkeys b

(* decrypt a response's winners, as a real remote client would *)
let ids_of_resp name resp =
  match resp with
  | Wire.Query_resp { top; halting_depth; halted } ->
    let res = { Sectopk.Query.top; halting_depth; halted; depth_seconds = [||] } in
    let _, sk', ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
    let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk' in
    let all_ids = List.init 5 (fun i -> Relation.object_id fig3 i) in
    List.map (fun (id, _, _) -> id)
      (Sectopk.Client.real_results ~sk:sk' ctx key ~ids:all_ids res)
  | _ -> Alcotest.fail (name ^ ": not a Query_resp")

let check_is_expected name expected resp =
  Alcotest.(check bool) name true (msg_eq expected resp);
  Alcotest.(check (list string))
    (name ^ ": decrypted ids")
    (ids_of_resp "expected" expected)
    (ids_of_resp name resp);
  Alcotest.(check int) (name ^ ": k winners") 2 (List.length (ids_of_resp name resp))

(* ---------------- Core.Service (deterministic overload) ---------------- *)

module Gate = struct
  type t = { m : Mutex.t; c : Condition.t; mutable open_ : bool }

  let create () = { m = Mutex.create (); c = Condition.create (); open_ = false }

  let wait t =
    Mutex.lock t.m;
    while not t.open_ do
      Condition.wait t.c t.m
    done;
    Mutex.unlock t.m

  let open_ t =
    Mutex.lock t.m;
    t.open_ <- true;
    Condition.broadcast t.c;
    Mutex.unlock t.m
end

let test_service_busy () =
  let svc = Core.Service.create ~domains:1 ~queue_depth:1 in
  let started = Gate.create () and release = Gate.create () in
  let ran = Atomic.make 0 in
  let blocker () =
    Gate.open_ started;
    Gate.wait release;
    Atomic.incr ran
  in
  Alcotest.(check bool) "first job admitted" true (Core.Service.submit svc blocker = `Accepted);
  Gate.wait started;
  (* worker busy: one queue slot left, then hard Busy *)
  Alcotest.(check bool) "queue slot admitted" true
    (Core.Service.submit svc (fun () -> Atomic.incr ran) = `Accepted);
  Alcotest.(check bool) "overflow is Busy" true (Core.Service.submit svc ignore = `Busy);
  Alcotest.(check bool) "still Busy" true (Core.Service.submit svc ignore = `Busy);
  Gate.open_ release;
  Core.Service.drain svc;
  Alcotest.(check int) "admitted jobs all ran" 2 (Atomic.get ran);
  (* a drained service admits nothing *)
  Alcotest.(check bool) "drained is Busy" true (Core.Service.submit svc ignore = `Busy)

let test_service_runs_everything () =
  let svc = Core.Service.create ~domains:4 ~queue_depth:64 in
  let ran = Atomic.make 0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "admitted" true
      (Core.Service.submit svc (fun () -> Atomic.incr ran) = `Accepted)
  done;
  Core.Service.drain svc;
  Alcotest.(check int) "all 50 ran" 50 (Atomic.get ran)

let test_service_swallows_exceptions () =
  let svc = Core.Service.create ~domains:1 ~queue_depth:4 in
  let ran = Atomic.make 0 in
  ignore (Core.Service.submit svc (fun () -> failwith "job crashed"));
  ignore (Core.Service.submit svc (fun () -> Atomic.incr ran));
  Core.Service.drain svc;
  Alcotest.(check int) "worker survived the crash" 1 (Atomic.get ran)

(* ---------------- the crew: fan-outs on service workers ---------------- *)

(* Poll [cond] until it holds or [seconds] pass; whether it held. A
   missing borrow then fails a check instead of hanging the suite. *)
let await ?(seconds = 5.) cond =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () = cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ())) in
  go ()

let self () = (Domain.self () :> int)

let submit_ok svc job =
  Alcotest.(check bool) "job admitted" true (Core.Service.submit svc job = `Accepted)

(* Items 0 and 8 open chunks 0 and 1 of a 64-item fan-out; each waits for
   the other to arrive, so both must run at once on two domains. *)
let rendezvous () =
  let arrived = [| Atomic.make false; Atomic.make false |] in
  fun i ->
    let me = if i = 0 then 0 else 1 in
    Atomic.set arrived.(me) true;
    await (fun () -> Atomic.get arrived.(1 - me))

let test_fanout_borrows_parked_worker () =
  let svc = Core.Service.create ~domains:2 ~queue_depth:4 in
  let meet = rendezvous () and met = Atomic.make true in
  let ran_on = Array.make 64 (-1) and result = Atomic.make None in
  submit_ok svc (fun () ->
      let r =
        Core.Pool.run ~domains:2 ~jobs:64 (fun i ->
            ran_on.(i) <- self ();
            if (i = 0 || i = 8) && not (meet i) then Atomic.set met false;
            i * i)
      in
      Atomic.set result (Some r));
  let completed = await (fun () -> Atomic.get result <> None) in
  Core.Service.drain svc;
  Alcotest.(check bool) "fan-out completed" true completed;
  Alcotest.(check (array int)) "results in index order" (Array.init 64 (fun i -> i * i))
    (Option.get (Atomic.get result));
  Alcotest.(check bool) "chunks 0 and 1 ran at once" true (Atomic.get met);
  Alcotest.(check int) "two domains ran the items" 2
    (List.length (List.sort_uniq compare (Array.to_list ran_on)))

let test_fanout_inline_when_crew_busy () =
  let svc = Core.Service.create ~domains:2 ~queue_depth:4 in
  let started = Gate.create () and release = Gate.create () in
  submit_ok svc (fun () ->
      Gate.open_ started;
      Gate.wait release);
  Gate.wait started;
  let caller = Atomic.make (-1) and ran_on = Array.make 64 (-1) and result = Atomic.make None in
  submit_ok svc (fun () ->
      Atomic.set caller (self ());
      let r =
        Core.Pool.run ~domains:2 ~jobs:64 (fun i ->
            ran_on.(i) <- self ();
            i + 1)
      in
      Atomic.set result (Some r));
  (* the other worker is still blocked: the fan-out must finish alone *)
  let completed = await (fun () -> Atomic.get result <> None) in
  Gate.open_ release;
  Core.Service.drain svc;
  Alcotest.(check bool) "completed before the block was released" true completed;
  Alcotest.(check (array int)) "results" (Array.init 64 (fun i -> i + 1))
    (Option.get (Atomic.get result));
  Alcotest.(check bool) "every item ran on the caller" true
    (Array.for_all (fun d -> d = Atomic.get caller) ran_on)

let test_fanout_exception_after_started_items () =
  let svc = Core.Service.create ~domains:2 ~queue_depth:4 in
  let meet = rendezvous () in
  let started = Atomic.make 0 and finished = Atomic.make 0 and slow_done = Atomic.make false in
  let outcome = Atomic.make None in
  let item i =
    Atomic.incr started;
    Fun.protect
      ~finally:(fun () -> Atomic.incr finished)
      (fun () ->
        match i with
        | 0 ->
          ignore (meet 0);
          failwith "item 0"
        | 8 ->
          ignore (meet 8);
          (* still running when item 0 raises *)
          Unix.sleepf 0.2;
          Atomic.set slow_done true
        | _ -> ())
  in
  submit_ok svc (fun () ->
      let r =
        match Core.Pool.run ~domains:2 ~jobs:64 item with
        | _ -> `Returned
        | exception Failure msg ->
          `Raised (msg, Atomic.get slow_done, Atomic.get started = Atomic.get finished)
      in
      Atomic.set outcome (Some r));
  Alcotest.(check bool) "fan-out returned" true (await (fun () -> Atomic.get outcome <> None));
  (match Option.get (Atomic.get outcome) with
  | `Raised (msg, slow_done, all_finished) ->
    Alcotest.(check string) "the item's exception" "item 0" msg;
    Alcotest.(check bool) "raised after the slow item finished" true slow_done;
    Alcotest.(check bool) "every started item had finished" true all_finished
  | `Returned -> Alcotest.fail "the exception was lost");
  let later = Atomic.make false in
  submit_ok svc (fun () -> Atomic.set later true);
  Alcotest.(check bool) "the service runs later jobs" true (await (fun () -> Atomic.get later));
  Core.Service.drain svc

(* One worker runs a job, the other helps it; with no queue slot a new job
   is still admitted, and runs once the helper's chunk ends. *)
let test_help_is_not_admission () =
  let svc = Core.Service.create ~domains:2 ~queue_depth:0 in
  let meet = rendezvous () and caller = Atomic.make (-1) in
  let helping = Atomic.make false and release = Gate.create () in
  let fanned = Atomic.make false and later = Atomic.make false in
  submit_ok svc (fun () ->
      Atomic.set caller (self ());
      ignore
        (Core.Pool.run ~domains:2 ~jobs:64 (fun i ->
             if (i = 0 || i = 8) && meet i && self () <> Atomic.get caller then begin
               Atomic.set helping true;
               Gate.wait release
             end));
      Atomic.set fanned true);
  let borrowed = await (fun () -> Atomic.get helping) in
  let verdict = Core.Service.submit svc (fun () -> Atomic.set later true) in
  Gate.open_ release;
  Alcotest.(check bool) "a parked worker was borrowed" true borrowed;
  Alcotest.(check bool) "admitted while the other worker helps" true (verdict = `Accepted);
  Alcotest.(check bool) "the admitted job ran" true (await (fun () -> Atomic.get later));
  Alcotest.(check bool) "the fan-out finished" true (await (fun () -> Atomic.get fanned));
  Core.Service.drain svc

(* ---------------- the served path ---------------- *)

let test_sequential_identity () =
  with_server (fun srv ->
      let expected = expected_resp () in
      with_client (Server.port srv) (fun fd ->
          check_is_expected "first query" expected (ask fd token);
          (* the session loops: a second query on the same connection *)
          check_is_expected "second query" expected (ask fd token));
      let st = Server.stats srv in
      Alcotest.(check int) "served" 2 st.Server.served;
      Alcotest.(check int) "no errors" 0 st.Server.errors;
      Alcotest.(check bool) "queue time measured" true (st.Server.query_seconds > 0.))

let test_concurrent_clients () =
  with_server ~workers:2 ~queue_depth:8 (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      let clients =
        List.init 4 (fun i ->
            Domain.spawn (fun () -> with_client port (fun fd -> (i, ask fd token))))
      in
      List.iter
        (fun d ->
          let i, resp = Domain.join d in
          check_is_expected (Printf.sprintf "client %d" i) expected resp)
        clients;
      let st = Server.stats srv in
      Alcotest.(check int) "all four served" 4 st.Server.served;
      Alcotest.(check int) "none turned away" 0 st.Server.busy)

(* Keys are derived once per process, not once per query: with Obs on,
   two served queries count exactly twice the crypto ops of one
   in-process query whose context was built outside its collector. The
   store and its cache count only on the served side. *)
let test_served_ops () =
  let prev_obs = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled prev_obs)
    (fun () ->
      let inproc =
        let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
        let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk in
        let c = Obs.Collector.create () in
        Obs.with_collector c (fun () ->
            ignore
              (Sectopk.Query.run ctx er (Sectopk.Codec.decode_token token)
                 Sectopk.Query.default_options));
        Obs.Collector.metrics c
      in
      let served =
        with_server (fun srv ->
            with_client (Server.port srv) (fun fd ->
                ignore (ask fd token);
                ignore (ask fd token));
            Obs.Collector.metrics (Server.obs srv))
      in
      Alcotest.(check bool) "the query decrypts" true
        (Obs.Metrics.get inproc Obs.Metrics.Paillier_dec > 0);
      List.iter
        (fun (op, v) ->
          match op with
          | Obs.Metrics.Store_read_bytes | Cache_hit | Cache_miss -> ()
          | op -> Alcotest.(check int) (Obs.Metrics.name op) (2 * v) (Obs.Metrics.get served op))
        (Obs.Metrics.to_alist inproc))

(* Window 0 ships whatever is parked on every wake: trips coalesce only
   by chance, and every response must still be the sequential one. *)
let test_window_zero () =
  with_server ~coalesce_window_us:0 ~workers:2 ~queue_depth:8 (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      with_client port (fun fd -> check_is_expected "sequential" expected (ask fd token));
      let clients =
        List.init 4 (fun i ->
            Domain.spawn (fun () -> with_client port (fun fd -> (i, ask fd token))))
      in
      List.iter
        (fun d ->
          let i, resp = Domain.join d in
          check_is_expected (Printf.sprintf "client %d" i) expected resp)
        clients;
      Alcotest.(check int) "all five served" 5 (Server.stats srv).Server.served)

let test_overload_returns_busy () =
  (* capacity 1 (one worker, empty queue): 6 simultaneous queries cannot
     all be admitted; the turned-away ones must get Busy immediately and
     every admitted one must still be exactly right *)
  with_server ~workers:1 ~queue_depth:0 (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      let clients =
        List.init 6 (fun _ ->
            Domain.spawn (fun () -> with_client port (fun fd -> ask fd token)))
      in
      let resps = List.map Domain.join clients in
      let busy, ok =
        List.partition (function Wire.Busy -> true | _ -> false) resps
      in
      List.iter (fun r -> check_is_expected "admitted under overload" expected r) ok;
      Alcotest.(check int) "every query answered" 6 (List.length busy + List.length ok);
      Alcotest.(check bool) "at least one served" true (List.length ok >= 1);
      let st = Server.stats srv in
      Alcotest.(check int) "stats add up" 6 (st.Server.served + st.Server.busy);
      Alcotest.(check int) "busy counted" (List.length busy) st.Server.busy)

let test_bad_token_is_typed_error () =
  with_server (fun srv ->
      let expected = expected_resp () in
      with_client (Server.port srv) (fun fd ->
          (match ask fd "not a token" with
          | Wire.Server_error _ -> ()
          | _ -> Alcotest.fail "garbage token must yield Server_error");
          (* the connection survives and still serves real queries *)
          check_is_expected "after error" expected (ask fd token));
      let st = Server.stats srv in
      Alcotest.(check int) "error counted" 1 st.Server.errors;
      Alcotest.(check int) "good query served" 1 st.Server.served)

let test_malformed_frame_keeps_session () =
  with_server (fun srv ->
      let expected = expected_resp () in
      with_client (Server.port srv) (fun fd ->
          (* a frame that is not a client message at all: answered with
             Server_error, and the session keeps serving *)
          Wire.write_frame fd "\xff\xfenot a client message";
          (match read_msg fd with
          | Wire.Server_error _ -> ()
          | _ -> Alcotest.fail "garbage frame must yield Server_error");
          check_is_expected "query after garbage frame" expected (ask fd token));
      let st = Server.stats srv in
      Alcotest.(check int) "error counted" 1 st.Server.errors;
      Alcotest.(check int) "good query served" 1 st.Server.served)

(* A length prefix above the client-frame cap is refused from the header:
   that connection closes (no 1 GiB buffer, no wait for the payload)
   while another client is still answered. The receive timeout turns a
   server that waits for the payload into a failure, not a hang. *)
let test_oversized_frame_closes_connection () =
  with_server (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      with_client port (fun bad ->
          Unix.setsockopt_float bad Unix.SO_RCVTIMEO 10.;
          ignore (Unix.write_substring bad "\x3f\xff\xff\xff" 0 4);
          Alcotest.(check bool) "connection closed" true (Wire.read_frame bad = None);
          with_client port (fun fd -> check_is_expected "other client" expected (ask fd token)));
      Alcotest.(check int) "good query served" 1 (Server.stats srv).Server.served)

(* ---------------- live telemetry ---------------- *)

let snap_counter snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Registry.Counter v) -> v
  | _ -> Alcotest.failf "no counter %s in snapshot" name

let snap_hist snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Registry.Histogram d) -> d
  | _ -> Alcotest.failf "no histogram %s in snapshot" name

let scrape port =
  Transport.scrape_stats (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let test_live_scrape () =
  (* scrape over the wire while 4 clients are mid-query, then again after
     they finish: the final counts must equal ground truth exactly *)
  with_server ~workers:2 ~queue_depth:8 (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      let clients =
        List.init 4 (fun i ->
            Domain.spawn (fun () -> with_client port (fun fd -> (i, ask fd token))))
      in
      (* mid-load scrape: a fresh key-less connection, served while query
         sessions are running; counts are a consistent prefix *)
      let mid = scrape port in
      let mid_served = snap_counter mid "served" in
      Alcotest.(check bool) "mid-load served in range" true (mid_served >= 0 && mid_served <= 4);
      Alcotest.(check bool) "mid-load snapshot torn-read-free" true
        ((snap_hist mid "exec_us").Obs.Registry.hcount
         = mid_served + snap_counter mid "errors");
      List.iter
        (fun d ->
          let i, resp = Domain.join d in
          check_is_expected (Printf.sprintf "client %d" i) expected resp)
        clients;
      let snap = scrape port in
      Alcotest.(check int) "served equals ground truth" 4 (snap_counter snap "served");
      Alcotest.(check int) "no busy" 0 (snap_counter snap "busy");
      Alcotest.(check int) "no errors" 0 (snap_counter snap "errors");
      let exec = snap_hist snap "exec_us" and qwait = snap_hist snap "queue_wait_us" in
      Alcotest.(check int) "exec histogram count" 4 exec.Obs.Registry.hcount;
      Alcotest.(check int) "queue-wait histogram count" 4 qwait.Obs.Registry.hcount;
      Alcotest.(check bool) "exec histogram non-zero" true (exec.Obs.Registry.hsum > 0);
      Alcotest.(check int) "rounds histogram count" 4
        (snap_hist snap "query_rounds").Obs.Registry.hcount;
      Alcotest.(check bool) "bytes recorded" true
        ((snap_hist snap "query_bytes").Obs.Registry.hsum > 0);
      (* the scraped snapshot matches the in-process registry and the
         derived legacy stats view *)
      let st = Server.stats srv in
      Alcotest.(check int) "derived view served" (snap_counter snap "served") st.Server.served;
      Alcotest.(check bool) "derived seconds from histograms" true
        (st.Server.query_seconds >= float_of_int exec.Obs.Registry.hsum /. 1e6 -. 1e-9);
      (* and every metric reaches the JSON and Prometheus expositions *)
      let json = Obs.Registry.to_json snap in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) ("json has " ^ name) true (contains json ("\"" ^ name ^ "\":")))
        snap;
      Alcotest.(check bool) "prometheus non-empty" true
        (String.length (Obs.Registry.to_prometheus snap) > 0))

let test_query_log_and_traces () =
  let tmp = Filename.temp_file "test_server_qlog" ".jsonl" in
  let tdir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "test_server_traces_%d" (Unix.getpid ()))
  in
  let prev_obs = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled prev_obs;
      (try Sys.remove tmp with Sys_error _ -> ());
      Array.iter
        (fun f -> try Sys.remove (Filename.concat tdir f) with Sys_error _ -> ())
        (try Sys.readdir tdir with Sys_error _ -> [||]);
      try Unix.rmdir tdir with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let st = Store.open_index ~dir:(store_dir ()) pub in
      let srv =
        Server.start
          { (cfg 2 8) with
            Server.qlog =
              { Server.Qlog.log_json = Some tmp;
                slow_query_ms = Some 0. (* every query is an outlier *);
                trace_sample = Some 1;
                trace_dir = tdir } }
          (Server.Single st)
      in
      Fun.protect
        ~finally:(fun () ->
          Server.shutdown srv;
          Store.close st)
        (fun () ->
          with_client (Server.port srv) (fun fd ->
              ignore (ask fd token);
              (match ask fd "not a token" with
              | Wire.Server_error _ -> ()
              | _ -> Alcotest.fail "expected Server_error");
              ignore (ask fd token)));
      (* shutdown flushed and closed the log; parse it back *)
      let ic = open_in tmp in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      let count needle =
        List.length
          (List.filter
             (fun l ->
               let nl = String.length l and nn = String.length needle in
               let rec go i = i + nn <= nl && (String.sub l i nn = needle || go (i + 1)) in
               go 0)
             lines)
      in
      Alcotest.(check int) "two ok entries" 2 (count "\"outcome\":\"ok\"");
      Alcotest.(check int) "one error entry" 1 (count "\"outcome\":\"error\"");
      Alcotest.(check bool) "slow-query reports logged" true (count "\"slow_query\":true" >= 2);
      Alcotest.(check bool) "entries carry latency fields" true (count "\"exec_us\":" >= 3);
      (* every query sampled: at least one rotating trace slot written,
         and it is a loadable Chrome trace object *)
      let traces = try Sys.readdir tdir with Sys_error _ -> [||] in
      Alcotest.(check bool) "sampled trace written" true (Array.length traces >= 1);
      let tic = open_in (Filename.concat tdir traces.(0)) in
      let first = input_line tic in
      close_in tic;
      let prefix = "{\"traceEvents\":[" in
      Alcotest.(check bool) "trace is a Chrome trace object" true
        (String.length first >= String.length prefix
        && String.sub first 0 (String.length prefix) = prefix))

(* ---------------- sharded serving ---------------- *)

let snap_gauge snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Registry.Gauge v) -> v
  | _ -> Alcotest.failf "no gauge %s in snapshot" name

let test_sharded_server () =
  (* the same relation split over 2 shards behind the same front-end:
     the response is byte-identical to the in-process scatter-gather
     run, the decrypted winners match the single-store server, and the
     scrape carries the shard telemetry.  Comb warm-up is global, so
     [combs_built] stays flat between the sharded and single servers. *)
  let _, _, _, data_rng = Ctx.provision ~seed:"serve-shards" ~key_bits ~rand_bits () in
  let ers, key2 = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:2 data_rng pub fig3 in
  let token2 =
    Sectopk.Codec.encode_token
      (Sectopk.Scheme.token key2 ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2)
  in
  let dir = Tmp_dirs.fresh "test_server_sh" in
  Store.Sharded.build ~dir pub ers;
  let stores = Store.Sharded.open_index ~dir pub in
  let srv = Server.start (cfg 2 8) (Server.Sharded stores) in
  let combs_sharded = ref nan in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Array.iter Store.close stores)
    (fun () ->
      let expected =
        let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
        let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk in
        let tk = Sectopk.Codec.decode_token token2 in
        let res = Shard.run ctx ers tk Sectopk.Query.default_options in
        Wire.Query_resp
          {
            top = res.Sectopk.Query.top;
            halting_depth = res.Sectopk.Query.halting_depth;
            halted = res.Sectopk.Query.halted;
          }
      in
      let decrypt name resp =
        match resp with
        | Wire.Query_resp { top; halting_depth; halted } ->
          let res = { Sectopk.Query.top; halting_depth; halted; depth_seconds = [||] } in
          let _, sk', ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
          let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk' in
          let all_ids = List.init 5 (fun i -> Relation.object_id fig3 i) in
          List.map (fun (id, _, _) -> id)
            (Sectopk.Client.real_results ~sk:sk' ctx key2 ~ids:all_ids res)
        | _ -> Alcotest.fail (name ^ ": not a Query_resp")
      in
      with_client (Server.port srv) (fun fd ->
          let resp = ask fd token2 in
          Alcotest.(check bool) "sharded response byte-identical to in-process" true
            (msg_eq expected resp);
          Alcotest.(check (list string))
            "sharded winners match the single-store server"
            (ids_of_resp "single" (expected_resp ()))
            (decrypt "served" resp));
      let snap = scrape (Server.port srv) in
      Alcotest.(check (float 0.)) "shards gauge" 2.0 (snap_gauge snap "shards");
      Alcotest.(check int) "shard_queries counts per-shard fan-out" 2
        (snap_counter snap "shard_queries");
      Alcotest.(check bool) "merge rounds recorded" true
        (snap_counter snap "shard_merge_rounds" >= 1);
      combs_sharded := snap_gauge snap "combs_built");
  with_server (fun srv ->
      let snap = scrape (Server.port srv) in
      Alcotest.(check (float 0.)) "single-store shards gauge" 1.0 (snap_gauge snap "shards");
      Alcotest.(check (float 0.)) "combs_built flat across shard counts" !combs_sharded
        (snap_gauge snap "combs_built"))

(* Run [f] while idle domains hold every free domain slot of this process
   (the runtime caps live domains), then release and join them. *)
let with_domains_exhausted f =
  let gate = Gate.create () in
  let rec fill held =
    match Domain.spawn (fun () -> Gate.wait gate) with
    | d -> fill (d :: held)
    | exception Failure _ -> held
  in
  let held = fill [] in
  Fun.protect
    ~finally:(fun () ->
      Gate.open_ gate;
      List.iter Domain.join held)
    f

(* A connection that arrives while no domain slot is free is answered
   (Busy, or end of stream) instead of killing the listener; once slots
   free up the same server serves a query and a scrape. The receive
   timeout turns a dead listener into a failure, not a hang. *)
let test_domain_exhaustion () =
  with_server (fun srv ->
      let expected = expected_resp () in
      let port = Server.port srv in
      with_domains_exhausted (fun () ->
          let fd = connect port in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
              match Wire.read_frame fd with
              | None -> ()
              | Some frame -> (
                match Wire.decode_server_msg wkeys frame with
                | Wire.Busy -> ()
                | _ -> Alcotest.fail "expected Busy or end of stream")));
      with_client port (fun fd -> check_is_expected "after exhaustion" expected (ask fd token));
      let snap = scrape port in
      Alcotest.(check int) "served" 1 (snap_counter snap "served");
      Alcotest.(check int) "refusal counted as busy" 1 (snap_counter snap "busy"))

(* A Qry_F query on a connection opened before every domain slot was
   taken: its fan-outs borrow the server's other worker, so it needs no
   new domain and returns the expected answer. *)
let test_query_with_domains_exhausted () =
  with_server (fun srv ->
      let expected = expected_resp () in
      with_client (Server.port srv) (fun fd ->
          let resp = with_domains_exhausted (fun () -> ask fd token) in
          check_is_expected "query with every domain slot held" expected resp))

let test_shutdown_closes_port () =
  let st = Store.open_index ~dir:(store_dir ()) pub in
  let srv = Server.start (cfg 2 8) (Server.Single st) in
  let port = Server.port srv in
  with_client port (fun fd -> check_is_expected "pre-shutdown" (expected_resp ()) (ask fd token));
  Server.shutdown srv;
  Server.shutdown srv (* idempotent *);
  Store.close st;
  Alcotest.(check bool) "port closed after shutdown" true
    (match connect port with
    | fd ->
      Unix.close fd;
      false
    | exception Unix.Unix_error ((ECONNREFUSED | ETIMEDOUT), _, _) -> true)

let suite =
  [ ( "service",
      [ Alcotest.test_case "deterministic overflow" `Quick test_service_busy;
        Alcotest.test_case "runs everything admitted" `Quick test_service_runs_everything;
        Alcotest.test_case "survives job crashes" `Quick test_service_swallows_exceptions ] );
    ( "crew",
      [ Alcotest.test_case "fan-out borrows a parked worker" `Quick
          test_fanout_borrows_parked_worker;
        Alcotest.test_case "fan-out runs inline when the crew is busy" `Quick
          test_fanout_inline_when_crew_busy;
        Alcotest.test_case "exception after every started item" `Quick
          test_fanout_exception_after_started_items;
        Alcotest.test_case "help never answers Busy" `Quick test_help_is_not_admission ] );
    ( "serving",
      [ Alcotest.test_case "sequential identity" `Slow test_sequential_identity;
        Alcotest.test_case "4 concurrent clients" `Slow test_concurrent_clients;
        Alcotest.test_case "served ops" `Slow test_served_ops;
        Alcotest.test_case "coalescing window 0" `Slow test_window_zero;
        Alcotest.test_case "overload -> Busy" `Slow test_overload_returns_busy;
        Alcotest.test_case "bad token -> Server_error" `Slow test_bad_token_is_typed_error;
        Alcotest.test_case "oversized frame closes connection" `Slow
          test_oversized_frame_closes_connection;
        Alcotest.test_case "malformed frame -> Server_error" `Slow
          test_malformed_frame_keeps_session;
        Alcotest.test_case "live scrape mid-load" `Slow test_live_scrape;
        Alcotest.test_case "query log + sampled traces" `Slow test_query_log_and_traces;
        Alcotest.test_case "2-shard serving" `Slow test_sharded_server;
        Alcotest.test_case "domain exhaustion -> Busy, then serves" `Slow test_domain_exhaustion;
        Alcotest.test_case "Qry_F with every domain slot held" `Slow
          test_query_with_domains_exhausted;
        Alcotest.test_case "shutdown closes port" `Slow test_shutdown_closes_port ] ) ]

let () = Alcotest.run "server" suite
