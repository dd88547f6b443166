(* Round-scheduler coalescing: concurrent queries parked at a shared
   Sched must produce byte-identical per-query results, op counters and
   S2 traces vs the dedicated-transport baseline — coalescing may change
   only who carries the frames and how many merged trips ship. Also
   pinned: the trip count collapses toward a single query's round budget
   when queries run in lockstep, randomized park/resume orderings never
   deadlock or cross-deliver slices (QCheck), and a broken backend
   surfaces as a typed Proto_error instead of killing domains. *)

open Dataset
open Topk
open Proto

let seed = "test_sched"
let key_bits = 128
let rand_bits = 96

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let hello =
  { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = true }

(* What one query leaves behind; [ops] includes the framing counters
   (bytes/messages/rounds) — the Mux transport charges the same closed
   forms as Inproc, so even those must match the baseline exactly. *)
type outcome = {
  repr : string list;
  ops : (string * int) list;
  rounds : int;
}

let collect_ops col =
  Obs.Metrics.to_alist (Obs.Collector.metrics col)
  |> List.map (fun (op, v) -> (Obs.Metrics.name op, v))
  |> List.filter (fun (_, v) -> v > 0)

(* The fig3 top-k query, parameterized by [k] so interleaved queries can
   differ (different round counts, different answers — a routing mistake
   cannot cancel out). *)
let scenario ~k ~pub ~sk ~data_rng ctx =
  let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub fig3 in
  let tk = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k in
  let res = Sectopk.Query.run ctx er tk Sectopk.Query.default_options in
  let all_ids = List.init (Relation.n_rows fig3) (fun i -> Relation.object_id fig3 i) in
  (* a process builds the client's id dictionary once per key
     (Scheme.make_resolver); build it outside the compared counters, so
     that no run's open pays for it however the runs are ordered *)
  let _resolver =
    Obs.with_collector (Obs.Collector.create ()) (fun () ->
        Sectopk.Scheme.make_resolver key ~pub ~ids:all_ids)
  in
  let ids =
    List.map (fun (id, _, _) -> id) (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
  in
  let nat_str (c : Crypto.Paillier.ciphertext) = Bignum.Nat.to_string (c :> Bignum.Nat.t) in
  string_of_int res.Sectopk.Query.halting_depth
  :: ids
  @ List.concat_map
      (fun (it : Enc_item.scored) ->
        nat_str it.worst :: nat_str it.best :: Array.to_list (Array.map nat_str it.seen))
      res.Sectopk.Query.top

(* One query on a fresh seeded context. [mode] is the only difference
   between baseline and coalesced runs; the per-query collector wraps the
   scenario exactly (provisioning and S2 setup stay outside on both
   paths). Returns the outcome and the S2 trace source. *)
let run_one ?domains ~k mode =
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ?domains ~mode ctx_rng pub sk in
  let repr = Obs.with_collector ctx.Ctx.obs (fun () -> scenario ~k ~pub ~sk ~data_rng ctx) in
  {
    repr;
    ops = collect_ops ctx.Ctx.obs;
    rounds = Channel.rounds_total (Ctx.channel ctx);
  }

(* A coalescing harness: local in-process backend whose [make] starts
   each session from a copy of one derivation of the client's
   provisioning (what the daemon does per Mux_open) and records each
   root responder so the test can read per-session traces afterwards. *)
type harness = {
  sched : Sched.t;
  reg : Obs.Registry.t;
  roots : (int, S2_server.t) Hashtbl.t;
  roots_lock : Mutex.t;
}

let make_harness ~window_us =
  let roots = Hashtbl.create 8 in
  let roots_lock = Mutex.create () in
  let start = S2_server.provision hello in
  let make ~session =
    let s = start () in
    Mutex.lock roots_lock;
    Hashtbl.replace roots session s;
    Mutex.unlock roots_lock;
    s
  in
  let st = S2_server.mux_state ~make in
  let reg = Obs.Registry.create () in
  let sched =
    Sched.create ~window_us ~registry:reg ~backend:(S2_server.handle_mux_ops st) ()
  in
  { sched; reg; roots; roots_lock }

let counter_of snap name =
  match List.assoc_opt name snap with Some (Obs.Registry.Counter v) -> v | _ -> 0

(* [n] concurrent queries (query [i] with [ks.(i)]) through one shared
   scheduler; returns per-query outcomes, per-query S2 traces and the
   scheduler's registry snapshot. *)
let run_coalesced ~window_us ks =
  let n = Array.length ks in
  let h = make_harness ~window_us in
  let outs = Array.make n None in
  let doms =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let session = Sched.open_query h.sched in
            let out = run_one ~k:ks.(i) (Ctx.Mux (h.sched, session)) in
            Sched.close_query h.sched session;
            outs.(i) <- Some (session, out)))
  in
  Array.iter Domain.join doms;
  Sched.stop h.sched;
  let snap = Obs.Registry.snapshot h.reg in
  let results =
    Array.map
      (fun o ->
        let session, out = Option.get o in
        let trace = Trace.events (S2_server.trace (Hashtbl.find h.roots session)) in
        (out, trace))
      outs
  in
  (results, snap)

let check_query_equiv name (base : outcome) base_trace ((out : outcome), trace) =
  Alcotest.(check (list string)) (name ^ ": results byte-identical") base.repr out.repr;
  Alcotest.(check (list (pair string int)))
    (name ^ ": op counters (incl. framing)")
    base.ops out.ops;
  Alcotest.(check int) (name ^ ": per-query rounds") base.rounds out.rounds;
  Alcotest.(check bool) (name ^ ": S2 trace identical") true (base_trace = trace)

(* Baseline trace needs a server handle; Inproc exposes it via the ctx. *)
let baseline ~k =
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ~mode:Ctx.Inproc ctx_rng pub sk in
  let repr = Obs.with_collector ctx.Ctx.obs (fun () -> scenario ~k ~pub ~sk ~data_rng ctx) in
  ( {
      repr;
      ops = collect_ops ctx.Ctx.obs;
      rounds = Channel.rounds_total (Ctx.channel ctx);
    },
    Ctx.trace_events ctx )

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

(* ---------------- equivalence ---------------- *)

(* Mixed workload: four interleaved queries, two round-count classes.
   Every query must land byte-identical to its dedicated-transport twin,
   and the merged trips must undercut the uncoalesced total. *)
let test_equivalence_mixed () =
  with_obs (fun () ->
      let base1 = baseline ~k:1 and base2 = baseline ~k:2 in
      let ks = [| 2; 1; 2; 1 |] in
      let results, snap = run_coalesced ~window_us:10_000 ks in
      Array.iteri
        (fun i r ->
          let b, bt = if ks.(i) = 1 then base1 else base2 in
          check_query_equiv (Printf.sprintf "q%d(k=%d)" i ks.(i)) b bt r)
        results;
      let trips = counter_of snap "coalesced_rounds" in
      let saved = counter_of snap "rounds_saved" in
      let sum_rounds = Array.fold_left (fun a (o, _) -> a + o.rounds) 0 results in
      Alcotest.(check bool)
        (Printf.sprintf "trips %d < uncoalesced total %d" trips sum_rounds)
        true (trips < sum_rounds);
      Alcotest.(check bool) "rounds actually saved" true (saved > 0);
      (match List.assoc_opt "parked_queries" snap with
      | Some (Obs.Registry.Gauge g) -> Alcotest.(check (float 0.)) "nothing parked" 0. g
      | _ -> Alcotest.fail "parked_queries gauge missing"))

(* Lockstep workload: four identical queries. The all-parked ship rule
   should merge them near-perfectly, so total trips stay within 2x one
   query's round budget — vs 4x for dedicated transports. The window is
   generous because S1 compute between parks is real crypto here: on
   contended cores the skew between identical queries can reach tens of
   milliseconds, and a straggler missing the window splits the trip. *)
let test_lockstep_trip_budget () =
  with_obs (fun () ->
      let base, _ = baseline ~k:2 in
      (* the single-client trip budget: a lone query at window 0 ships
         every parked op alone, so its trip count is exactly the
         per-query op count (rpc rounds + open/close) *)
      let _, snap1 = run_coalesced ~window_us:0 [| 2 |] in
      let single_trips = counter_of snap1 "coalesced_rounds" in
      let results, snap = run_coalesced ~window_us:200_000 [| 2; 2; 2; 2 |] in
      Array.iter
        (fun (o, _) ->
          Alcotest.(check (list string)) "lockstep results" base.repr o.repr)
        results;
      let trips = counter_of snap "coalesced_rounds" in
      Alcotest.(check bool)
        (Printf.sprintf "4-client trips %d <= 2x single budget %d (vs 4x = %d uncoalesced)"
           trips single_trips (4 * single_trips))
        true
        (trips <= 2 * single_trips))

(* A single query through the scheduler is the degenerate case: every op
   ships alone, still byte-identical. Window 0 = opportunistic mode. *)
let test_single_query () =
  with_obs (fun () ->
      let base, bt = baseline ~k:2 in
      let results, snap = run_coalesced ~window_us:0 [| 2 |] in
      check_query_equiv "single" base bt results.(0);
      let trips = counter_of snap "coalesced_rounds" in
      Alcotest.(check bool)
        (Printf.sprintf "%d trips >= %d rounds" trips base.rounds)
        true
        (trips >= base.rounds))

(* Ctx.map items are pure S1 work that opens no S2 session, so a lone
   mux query ships exactly one backend trip per channel round between its
   open and its close: no Mux_fork/Mux_join trips for the fan-outs. They
   run on the full pool under Mux too, with the Inproc answer. A 2-shard
   query batches every shard's blocks into its own session, so it ships
   no fork or join either. *)
let test_trips_equal_rounds () =
  let base, _ = baseline ~k:2 in
  let start = S2_server.provision hello in
  let st = S2_server.mux_state ~make:(fun ~session:_ -> start ()) in
  let trips = Atomic.make 0 and forks = Atomic.make 0 in
  let backend ops =
    Atomic.incr trips;
    List.iter
      (function
        | (Wire.Mux_fork _ | Wire.Mux_join _), _ -> Atomic.incr forks
        | _ -> ())
      ops;
    S2_server.handle_mux_ops st ops
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let lone f =
    let session = Sched.open_query sched in
    let before = Atomic.get trips in
    let out = f (Ctx.Mux (sched, session)) in
    let during = Atomic.get trips - before in
    Sched.close_query sched session;
    (out, during)
  in
  let out, during = lone (run_one ~domains:2 ~k:2) in
  Alcotest.(check (list string)) "results byte-identical" base.repr out.repr;
  Alcotest.(check int) "backend trips = channel rounds" out.rounds during;
  let (ids, rounds), during =
    lone (fun mode ->
        let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
        let ctx = Ctx.of_keys ~blind_bits:48 ~domains:2 ~mode ctx_rng pub sk in
        let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:2 data_rng pub fig3 in
        let tk = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
        let res, _ = Sectopk.Query.run_sharded ctx ers tk Sectopk.Query.default_options in
        let all_ids = List.init (Relation.n_rows fig3) (Relation.object_id fig3) in
        let reals = Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res in
        (List.map (fun (id, _, _) -> id) reals, Channel.rounds_total (Ctx.channel ctx)))
  in
  Sched.stop sched;
  Alcotest.(check int) "2 shards: backend trips = channel rounds" rounds during;
  Alcotest.(check int) "no Mux_fork or Mux_join shipped" 0 (Atomic.get forks);
  Alcotest.(check bool) "2 shards: valid top-2" true
    (List.length ids = 2
    && Nra.valid_answer fig3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2
       (List.map (fun id -> int_of_string (String.sub id 1 (String.length id - 1))) ids))

(* ---------------- scheduler core (no crypto) ---------------- *)

(* Pure echo backend: the reply encodes (session, label), so a slice
   delivered to the wrong query is always detectable. *)
let echo v_of ops =
  List.map
    (fun (op, _col) ->
      match op with
      | Wire.Mux_req { session; label; _ } -> Wire.Mux_answer (Wire.Slot (Some (v_of session label)))
      | _ -> Wire.Mux_ok)
    ops

let slot_value session label = Hashtbl.hash (session, label) land 0xffffff

(* Randomized park/resume orderings: every query must complete (no
   deadlock at any window, including 0 and one big enough that only the
   all-parked rule ships) and receive exactly its own replies. *)
let prop_random_orderings =
  QCheck.Test.make ~count:20 ~name:"random park/resume: completion + correct slices"
    QCheck.(triple (int_range 1 5) (int_range 0 1000) (int_range 0 2))
    (fun (nq, mix, wsel) ->
      let window_us = [| 0; 200; 5_000 |].(wsel) in
      let sched = Sched.create ~window_us ~backend:(echo slot_value) () in
      let ok = Array.make nq true in
      let doms =
        Array.init nq (fun q ->
            Domain.spawn (fun () ->
                let session = Sched.open_query sched in
                let nops = (mix + (7 * q)) mod 7 in
                for j = 0 to nops - 1 do
                  let label = Printf.sprintf "q%d:%d" session j in
                  (match
                     Sched.submit sched
                       (Wire.Mux_req { session; label; req = Wire.Zero_slot [] })
                   with
                  | Wire.Mux_answer (Wire.Slot (Some v)) when v = slot_value session label -> ()
                  | _ -> ok.(q) <- false);
                  (* stagger the parks so batches form and break up *)
                  if (mix + j + q) mod 3 = 0 then
                    Unix.sleepf (float_of_int ((mix + j) mod 4) *. 2e-4)
                done;
                Sched.close_query sched session))
      in
      Array.iter Domain.join doms;
      Sched.stop sched;
      Array.for_all Fun.id ok)

(* Sustained window-0 load writes far more wake bytes than the self-pipe
   holds. The pipe is non-blocking on both ends, so overflow drops the
   byte (one is already in there to fire the select); a blocking pipe
   would deadlock every query once it filled — a submitter stuck in
   write holding the scheduler lock, the shipper stuck on the lock,
   nobody reading. *)
let test_wake_pipe_flood () =
  let sched = Sched.create ~window_us:0 ~backend:(echo slot_value) () in
  let nq = 5 and nops = 20_000 in
  let ok = Array.make nq true in
  let doms =
    Array.init nq (fun q ->
        Domain.spawn (fun () ->
            let session = Sched.open_query sched in
            for j = 0 to nops - 1 do
              let label = string_of_int j in
              match
                Sched.submit sched
                  (Wire.Mux_req { session; label; req = Wire.Zero_slot [] })
              with
              | Wire.Mux_answer (Wire.Slot (Some v)) when v = slot_value session label -> ()
              | _ -> ok.(q) <- false
            done;
            Sched.close_query sched session))
  in
  Array.iter Domain.join doms;
  Sched.stop sched;
  Alcotest.(check bool) "all queries completed with correct slices" true
    (Array.for_all Fun.id ok)

(* Forks allocate child sessions and route by them too. *)
let test_fork_routing () =
  let sched = Sched.create ~window_us:0 ~backend:(echo slot_value) () in
  let parent = Sched.open_query sched in
  let child = Sched.alloc_session sched in
  (match Sched.submit sched (Wire.Mux_fork { parent; child; label = "par:0" }) with
  | Wire.Mux_ok -> ()
  | _ -> Alcotest.fail "fork not acked");
  (match
     Sched.submit sched (Wire.Mux_req { session = child; label = "c"; req = Wire.Zero_slot [] })
   with
  | Wire.Mux_answer (Wire.Slot (Some v)) ->
    Alcotest.(check int) "child slice" (slot_value child "c") v
  | _ -> Alcotest.fail "child got no slice");
  (match Sched.submit sched (Wire.Mux_join { parent; child }) with
  | Wire.Mux_ok -> ()
  | _ -> Alcotest.fail "join not acked");
  Sched.close_query sched parent;
  Sched.stop sched

(* ---------------- failure paths ---------------- *)

let expect_proto_error name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Proto_error.Proto_error _ -> true)

(* A backend crash answers every parked caller; the shipper survives and
   later submissions still get typed answers. *)
let test_backend_failure () =
  let boom = ref true in
  let backend ops = if !boom then failwith "boom" else echo slot_value ops in
  let sched = Sched.create ~window_us:0 ~backend () in
  Alcotest.(check bool) "backend exn surfaces" true
    (try
       ignore (Sched.open_query sched);
       false
     with Failure msg -> msg = "boom");
  boom := false;
  let session = Sched.open_query sched in
  Sched.close_query sched session;
  Sched.stop sched;
  expect_proto_error "submit after stop" (fun () ->
      Sched.submit sched (Wire.Mux_req { session = 1; label = "x"; req = Wire.Zero_slot [] }))

let test_reply_count_mismatch () =
  let sched = Sched.create ~window_us:0 ~backend:(fun _ -> []) () in
  expect_proto_error "arity mismatch is typed" (fun () -> Sched.open_query sched);
  Sched.stop sched

(* A reconnecting backend reports connection loss as Backend_lost: the
   sessions that lived on the dead connection fail with a typed error
   and their cleanup ops are answered locally (never shipped, where
   they would desync the fresh connection), while new queries open new
   sessions and are served immediately. *)
let test_backend_lost_recovery () =
  let lose = ref false in
  let shipped = ref 0 in (* ops the backend actually saw *)
  let backend ops =
    if !lose then begin
      lose := false;
      raise (Sched.Backend_lost "eof")
    end;
    shipped := !shipped + List.length ops;
    echo slot_value ops
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let a = Sched.open_query sched in
  lose := true;
  expect_proto_error "req on lost connection" (fun () ->
      Sched.submit sched (Wire.Mux_req { session = a; label = "x"; req = Wire.Zero_slot [] }));
  let before = !shipped in
  expect_proto_error "stale close is a typed error" (fun () -> Sched.close_query sched a);
  Alcotest.(check int) "stale close answered locally, not shipped" before !shipped;
  let b = Sched.open_query sched in
  (match
     Sched.submit sched (Wire.Mux_req { session = b; label = "y"; req = Wire.Zero_slot [] })
   with
  | Wire.Mux_answer (Wire.Slot (Some v)) ->
    Alcotest.(check int) "new session served on new connection" (slot_value b "y") v
  | _ -> Alcotest.fail "new session not served");
  Sched.close_query sched b;
  Sched.stop sched

(* close_query racing past stop must raise, not park an entry no shipper
   will ever drain (the caller would hang in Ivar.read forever). *)
let test_close_after_stop () =
  let sched = Sched.create ~window_us:0 ~backend:(echo slot_value) () in
  let session = Sched.open_query sched in
  Sched.stop sched;
  expect_proto_error "close after stop" (fun () -> Sched.close_query sched session)

(* A failed open must not leak its registration: with a big window, a
   leaked count would disable the all-parked fast path and make every
   later lone op wait the window out. *)
let test_open_failure_no_leak () =
  let boom = ref true in
  let backend ops = if !boom then failwith "boom" else echo slot_value ops in
  let sched = Sched.create ~window_us:500_000 ~backend () in
  (try ignore (Sched.open_query sched) with Failure _ -> ());
  boom := false;
  let t0 = Unix.gettimeofday () in
  let session = Sched.open_query sched in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "all-parked fast path still fires (%.0f ms < window)" (dt *. 1000.))
    true (dt < 0.4);
  Sched.close_query sched session;
  Sched.stop sched

(* A desynced S2 answering a Batch with the wrong arity must surface as
   Proto_error from Ctx.rpc_batch (the serving layer maps it to
   Server_error), not as a domain-killing Failure. *)
let test_rpc_batch_desync () =
  let backend ops =
    List.map
      (fun (op, _) ->
        match op with
        | Wire.Mux_req { req = Wire.Batch _; _ } ->
          Wire.Mux_answer (Wire.Batch_resp []) (* wrong arity *)
        | Wire.Mux_req _ -> Wire.Mux_answer (Wire.Bit true)
        | _ -> Wire.Mux_ok)
      ops
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let session = Sched.open_query sched in
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ~mode:(Ctx.Mux (sched, session)) ctx_rng pub sk in
  expect_proto_error "batch arity desync" (fun () ->
      Ctx.rpc_batch ctx ~label:"t" [ Wire.Zero_slot []; Wire.Zero_slot [] ]);
  Sched.close_query sched session;
  Sched.stop sched

let suite =
  [ ( "coalescing",
      [ Alcotest.test_case "mixed workload equivalence" `Slow test_equivalence_mixed;
        Alcotest.test_case "lockstep trip budget" `Slow test_lockstep_trip_budget;
        Alcotest.test_case "single query" `Slow test_single_query;
        Alcotest.test_case "trips equal rounds" `Quick test_trips_equal_rounds ] );
    ( "scheduler",
      [ QCheck_alcotest.to_alcotest prop_random_orderings;
        Alcotest.test_case "wake pipe flood" `Slow test_wake_pipe_flood;
        Alcotest.test_case "fork routing" `Quick test_fork_routing ] );
    ( "failures",
      [ Alcotest.test_case "backend crash" `Quick test_backend_failure;
        Alcotest.test_case "reply arity" `Quick test_reply_count_mismatch;
        Alcotest.test_case "connection loss recovery" `Quick test_backend_lost_recovery;
        Alcotest.test_case "close after stop" `Quick test_close_after_stop;
        Alcotest.test_case "open failure leak" `Quick test_open_failure_no_leak;
        Alcotest.test_case "rpc_batch desync" `Quick test_rpc_batch_desync ] ) ]

let () = Alcotest.run "sched" suite
