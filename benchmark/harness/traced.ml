(* The per-layer split: serve-s1's per-query path replayed in-process from
   public calls, timed at every layer boundary from here. Nothing inside
   the library is instrumented; protocol phases come from the spans it
   already records (Obs.Report.rows).

   - ingest: Uci_shape.load_csv, Scheme.encrypt_sharded, Store.build,
     Store.open_index and Store.verify, exactly as build-index runs them;
   - store: the relation is Scheme.of_fetch over a timed Store.entry;
   - S1: Ctx.provision, Sched.open_query, Ctx.of_keys ~mode:Mux,
     Shard.run_with_stats, Sched.close_query, as Server.run_query does;
   - S2: a Sched backend that times Wire.encode_mux, decode_mux,
     S2_server.handle_mux_ops (sessions replayed with of_hello, as
     serve-s2 does), encode_mux_replies and decode_mux_replies in turn.

   A query's wall time splits into provisioning, session open/close,
   context build, its domain's CPU time while the query runs, the trips
   it waited for (backend time plus the emulated RTT) and the trips it
   queued behind; what is left is reported as the residual. *)

open Proto
open Dataset

let protocols =
  [ "SecWorst"; "SecBest"; "SecDedup"; "SecUpdate"; "SecRefresh"; "EncSort"; "EncCompare" ]

(* SecUpdate's duplicate elimination travels under a label of its own *)
let protocol_of_label = function "SecDupElim" -> "SecUpdate" | l -> l

(* named totals shared by the client domains and the shipper, and the
   queries inside their run: query session -> CPU clock of its domain *)
type acc = { lock : Mutex.t; tbl : (string, float) Hashtbl.t; running : (int, int) Hashtbl.t }

let acc () = { lock = Mutex.create (); tbl = Hashtbl.create 64; running = Hashtbl.create 4 }

let locked a f =
  Mutex.lock a.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock a.lock) f

let add a name v =
  locked a (fun () ->
      Hashtbl.replace a.tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt a.tbl name)))

let get a name = locked a (fun () -> Option.value ~default:0. (Hashtbl.find_opt a.tbl name))

let take a name =
  locked a (fun () ->
      let v = Option.value ~default:0. (Hashtbl.find_opt a.tbl name) in
      Hashtbl.remove a.tbl name;
      v)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- S2 behind a timed backend ------------------------------------------ *)

(* A trip runs from encoding the merged frame to the end of the emulated
   RTT, slept here rather than by the scheduler (which would sleep at the
   same point) so the trip's end can be sampled. A running query whose
   domain burnt no CPU during a trip was blocked for all of it: waiting
   for its own op if one is on board, queued behind the others' if not. *)
let backend a ~keys ~link =
  let hello =
    { Wire.seed = Workload.key_seed; key_bits = Workload.key_bits;
      rand_bits = Some Workload.rand_bits; obs = false }
  in
  let st = S2_server.mux_state ~make:(fun ~session:_ -> S2_server.of_hello hello) in
  (* mux session -> the query session it belongs to (shard sub-sessions
     are forked off the query's own) *)
  let roots : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let root s = Option.value ~default:s (Hashtbl.find_opt roots s) in
  fun ops ->
    let running =
      locked a (fun () ->
          Hashtbl.fold (fun q clock acc -> (q, clock, Proc.clock_seconds clock) :: acc) a.running [])
    in
    let t0 = now () in
    let frame = Wire.encode_mux keys (List.map fst ops) in
    let decoded = Wire.decode_mux keys frame in
    let t1 = now () in
    let owners =
      List.map
        (function
          | Wire.Mux_open { session } | Wire.Mux_close { session } | Wire.Mux_req { session; _ } ->
            root session
          | Wire.Mux_fork { parent; child; _ } ->
            Hashtbl.replace roots child (root parent);
            root parent
          | Wire.Mux_join { parent; _ } -> root parent)
        decoded
    in
    let replies =
      List.map2
        (fun op (_, col) ->
          let r, dt = time (fun () -> S2_server.handle_mux_ops st [ (op, col) ]) in
          (match op with
          | Wire.Mux_req { label; _ } ->
            add a "s2.handle" dt;
            add a ("s2." ^ protocol_of_label label) dt
          | _ -> ());
          List.hd r)
        decoded ops
    in
    let t2 = now () in
    let reply_frame = Wire.encode_mux_replies keys replies in
    let out = Wire.decode_mux_replies keys reply_frame in
    let t3 = now () in
    if link then Unix.sleepf (float_of_int Workload.link_rtt_us *. 1e-6);
    let t4 = now () in
    add a "wire.codec" (t1 -. t0 +. (t3 -. t2));
    add a "wire.bytes" (float_of_int (String.length frame + String.length reply_frame));
    add a "sched.trips" 1.;
    add a "sched.ops" (float_of_int (List.length ops));
    List.iter
      (fun (q, clock, cpu0) ->
        let blocked = Float.max 0. (t4 -. t0 -. (Proc.clock_seconds clock -. cpu0)) in
        add a (Printf.sprintf "%s:%d" (if List.mem q owners then "own" else "queued") q) blocked)
      running;
    out

(* ---- ingest ------------------------------------------------------------- *)

type index = { stores : Store.t array; key : Sectopk.Scheme.secret_key }

let ingest a (spec : Workload.spec) ~csv ~dir =
  let rel, load_s = time (fun () -> fst (Uci_shape.load_csv csv)) in
  let pub, _, _, data_rng = Loadgen.provision () in
  let (ers, key), enc_s =
    time (fun () -> Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:spec.shards data_rng pub rel)
  in
  let sharded = spec.shards > 1 in
  let (), pub_s =
    time (fun () ->
        if sharded then Store.Sharded.build ~dir pub ers else Store.build ~dir pub ers.(0))
  in
  let open_ () =
    if sharded then Store.Sharded.open_index ~dir pub else [| Store.open_index ~dir pub |]
  in
  let stores, open_s = time open_ in
  let (), verify_s =
    time (fun () ->
        let sts = open_ () in
        Array.iter Store.verify sts;
        Array.iter Store.close sts)
  in
  let rows = float_of_int (Relation.n_rows rel) in
  add a "ingest.csv_load" load_s;
  add a "ingest.encrypt" enc_s;
  add a "ingest.publish" pub_s;
  add a "ingest.verify" verify_s;
  add a "ingest.rows" rows;
  add a "store.open" open_s;
  add a "store.disk_bytes"
    (float_of_int (Array.fold_left (fun acc st -> acc + Store.disk_bytes st) 0 stores));
  { stores; key }

let timed_relation a st =
  Sectopk.Scheme.of_fetch ~n:(Store.n_rows st) ~m:(Store.n_attrs st) (fun list depth ->
      let e, dt = time (fun () -> Store.entry st ~list ~depth) in
      add a "store.entry" dt;
      add a "store.entries" 1.;
      (e.Enc_item.ehl, e.Enc_item.score))

(* ---- one query ---------------------------------------------------------- *)

type record = {
  digest : string;
  depth : int;
  rounds : int;
  bytes : int;
  invalid : string option;
}

let variant_of_string = function
  | "full" -> Sectopk.Query.Full
  | _ -> Sectopk.Query.Elim

let replay_one a ~sched ~ers ~(index : index) ~rel ~ids ~options (q : Workload.query) =
  let scoring = Workload.scoring q in
  let tk, token_s =
    time (fun () ->
        Sectopk.Scheme.token index.key ~m_total:(Relation.n_attrs rel) scoring ~k:q.k)
  in
  let w0 = now () in
  let (pub, sk, ctx_rng, _), prov_s = time Loadgen.provision in
  let session, open_s = time (fun () -> Sched.open_query sched) in
  let qctx, keys_s =
    time (fun () ->
        Ctx.of_keys ~blind_bits:Workload.blind_bits ~mode:(Ctx.Mux (sched, session)) ctx_rng pub sk)
  in
  let col = Obs.Collector.create () in
  let clock = Proc.thread_clock () in
  locked a (fun () -> Hashtbl.replace a.running session clock);
  let cpu0 = Proc.clock_seconds clock and r0 = now () in
  let res, stats =
    Fun.protect
      ~finally:(fun () -> locked a (fun () -> Hashtbl.remove a.running session))
      (fun () -> Obs.with_collector col (fun () -> Shard.run_with_stats qctx ers tk options))
  in
  let run_s = now () -. r0 and cpu_s = Proc.clock_seconds clock -. cpu0 in
  let own = take a (Printf.sprintf "own:%d" session) in
  let queued = take a (Printf.sprintf "queued:%d" session) in
  let (), close_s = time (fun () -> Sched.close_query sched session) in
  let wall = now () -. w0 in
  let reals, decrypt_s =
    time (fun () -> Sectopk.Client.real_results ~sk qctx index.key ~ids res)
  in
  let ch = Ctx.channel qctx in
  let wkeys = Transport.keys qctx.Ctx.transport in
  let frame =
    Wire.encode_server_msg wkeys
      (Wire.Query_resp
         { top = res.Sectopk.Query.top; halting_depth = res.Sectopk.Query.halting_depth;
           halted = res.Sectopk.Query.halted })
  in
  List.iter
    (fun (name, v) -> add a name v)
    [ ("queries", 1.); ("client.token", token_s); ("client.decrypt", decrypt_s);
      ("ctx.provision", prov_s); ("ctx.of_keys", keys_s); ("sched.open_close", open_s +. close_s);
      ("query.run", run_s); ("query.depth", float_of_int res.Sectopk.Query.halting_depth);
      ("s1.compute", cpu_s); ("trace.wall", wall); ("trace.exec", prov_s +. open_s +. keys_s +. run_s +. close_s);
      ("sched.wait", own +. queued); ("sched.queued", queued);
      ("trace.residual", run_s -. cpu_s -. own -. queued);
      ("shard.merge_rounds", float_of_int stats.Shard.merge_rounds) ];
  List.iter
    (fun (r : Obs.Report.row) ->
      if List.mem r.Obs.Report.rname protocols then add a ("proto." ^ r.Obs.Report.rname) r.Obs.Report.wall)
    (Obs.Report.rows col);
  List.iter
    (fun (label, b) -> add a ("kb." ^ protocol_of_label label) (float_of_int b))
    (Channel.bytes_by_label ch);
  let m = Obs.Collector.metrics col in
  List.iter (fun (op, v) -> add a ("op." ^ Obs.Metrics.name op) (float_of_int v)) (Obs.Metrics.to_alist m);
  {
    digest = Digest.string frame;
    depth = res.Sectopk.Query.halting_depth;
    rounds = Channel.rounds_total ch;
    bytes = Channel.bytes_total ch;
    invalid = Loadgen.check rel scoring ~k:q.k reals;
  }

(* ---- crypto unit costs -------------------------------------------------- *)

(* Mean cost of each primitive at the deployed key size, with 48-bit
   scalars (the blinding width). *)
let unit_costs pub sk =
  let open Crypto in
  let rng = Rng.create ~seed:"benchmark-unit-costs" in
  let djpub, djsk = Damgard_jurik.of_paillier pub (Some sk) in
  let djsk = Option.get djsk in
  let x = Bignum.Nat.of_int 123456 and e = Bignum.Nat.of_int ((1 lsl 47) + 12345) in
  let c = Paillier.encrypt rng pub x and dc = Damgard_jurik.encrypt rng djpub x in
  let per f = Obs.Timer.per_call ~n:200 f *. 1e6 in
  [
    ("paillier_encrypt", per (fun () -> Paillier.encrypt rng pub x));
    ("paillier_decrypt", per (fun () -> Paillier.decrypt sk c));
    ("paillier_scalar_mul", per (fun () -> Paillier.scalar_mul pub c e));
    ("paillier_rerand", per (fun () -> Paillier.rerandomize rng pub c));
    ("dj_encrypt", per (fun () -> Damgard_jurik.encrypt rng djpub x));
    ("dj_decrypt", per (fun () -> Damgard_jurik.decrypt djsk dc));
    ("dj_scalar_mul", per (fun () -> Damgard_jurik.scalar_mul djpub dc e));
  ]

(* ---- the replay --------------------------------------------------------- *)

(* Replays [passes] (one query list per client, as the load generator sent
   them) in whole passes while younger than [seconds]; returns the totals,
   per client every pass's records, and the crypto unit costs in us. *)
let run (spec : Workload.spec) ~rel ~csv ~dir ~passes ~seconds =
  Obs.set_enabled true;
  let a = acc () in
  let index = ingest a spec ~csv ~dir in
  let ers = Array.map (timed_relation a) index.stores in
  let pub, sk, ctx_rng, _ = Loadgen.provision () in
  let keys =
    Transport.keys
      (Ctx.of_keys ~blind_bits:Workload.blind_bits ~mode:Ctx.Inproc ctx_rng pub sk).Ctx.transport
  in
  let sched = Sched.create ~backend:(backend a ~keys ~link:spec.link) () in
  let options =
    { Sectopk.Query.default_options with variant = variant_of_string spec.variant }
  in
  let ids = List.init (Relation.n_rows rel) (Relation.object_id rel) in
  let records, _ =
    Fun.protect
      ~finally:(fun () ->
        Sched.stop sched;
        Array.iter Store.close index.stores)
      (fun () ->
        Loadgen.run_passes passes ~seconds (fun _ _ q ->
            replay_one a ~sched ~ers ~index ~rel ~ids ~options q))
  in
  (a, records, unit_costs pub sk)
