(* Batched-vs-singleton equivalence: with batching forced off every
   request travels in its own frame — the historical execution. Batching
   must change framing only: results (ciphertext-identical), S2 traces
   and crypto op counters are equal on both paths, while rounds drop for
   every fan-out protocol and bytes stay within a small tolerance (batch
   frames trade per-frame headers for 5-byte element prefixes). The
   in-process transport encodes every frame, so the Wire codec sees
   every batch shape. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let seed = "test_batch"
let key_bits = 128
let rand_bits = 96

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

type outcome = {
  repr : string list;  (** scenario-defined result representation *)
  trace : Trace.event list;
  ops : (string * int) list;  (** crypto op counters — framing excluded *)
  bytes : int;
  msgs : int;
  rounds : int;
}

let framing_ops = [ "bytes"; "messages"; "rounds" ]

(* Run one scenario on a fresh seeded context; everything except
   [batching] is identical between the two runs being compared. *)
let run ~batching scenario : outcome =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled prev)
    (fun () ->
      let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
      let ctx = Ctx.with_batching (Ctx.of_keys ~blind_bits:48 ctx_rng pub sk) batching in
      let repr =
        Obs.with_collector ctx.Ctx.obs (fun () -> scenario ~pub ~sk ~data_rng ctx)
      in
      let chan = Ctx.channel ctx in
      let ops =
        Obs.Metrics.to_alist (Obs.Collector.metrics ctx.Ctx.obs)
        |> List.map (fun (op, v) -> (Obs.Metrics.name op, v))
        |> List.filter (fun (name, v) -> v > 0 && not (List.mem name framing_ops))
      in
      {
        repr;
        trace = Ctx.trace_events ctx;
        ops;
        bytes = Channel.bytes_total chan;
        msgs = Channel.messages_total chan;
        rounds = Channel.rounds_total chan;
      })

let nat_str (c : Paillier.ciphertext) = Nat.to_string (c :> Nat.t)

(* ---------------- scenarios ---------------- *)

let qry variant ~pub ~sk ~data_rng ctx =
  let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub fig3 in
  let tk = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let res = Sectopk.Query.run ctx er tk { Sectopk.Query.default_options with variant } in
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
  string_of_int res.Sectopk.Query.halting_depth
  :: ids
  @ List.concat_map
      (fun (it : Enc_item.scored) ->
        nat_str it.worst :: nat_str it.best :: Array.to_list (Array.map nat_str it.seen))
      res.Sectopk.Query.top

let enc_sort strategy ~pub ~sk:_ ~data_rng ctx =
  let prf_keys = Prf.gen_keys data_rng 4 in
  let scores = [ 3; 9; 0; 7; 4; 1; 8; 2 ] in
  let items =
    List.mapi
      (fun i s ->
        {
          Enc_item.ehl = Ehl.Ehl_plus.encode data_rng pub ~keys:prf_keys (Printf.sprintf "o%d" i);
          worst = Paillier.encrypt data_rng pub (Nat.of_int s);
          best = Paillier.encrypt data_rng pub (Nat.of_int (s + 1));
          seen = [| Paillier.encrypt data_rng pub Nat.zero |];
        })
      scores
  in
  Enc_sort.sort ctx ~strategy items
  |> List.concat_map (fun (it : Enc_item.scored) -> [ nat_str it.worst; nat_str it.best ])

let r1 = Relation.create ~name:"r1" [| [| 1; 10 |]; [| 2; 20 |]; [| 3; 30 |]; [| 2; 5 |] |]
let r2 = Relation.create ~name:"r2" [| [| 2; 100 |]; [| 3; 50 |]; [| 9; 7 |] |]

let sec_join ~pub ~sk:_ ~data_rng ctx =
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 data_rng pub r1 r2 in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  let combined = Join.Sec_join.combine ctx e1 e2 tk in
  let surviving = Join.Sec_join.filter ctx combined in
  List.map (fun (t : Join.Sec_join.joined) -> nat_str t.Join.Sec_join.score) surviving

let sknn ~pub ~sk:_ ~data_rng ctx =
  let rel =
    Relation.create ~name:"pts" [| [| 0; 0 |]; [| 10; 10 |]; [| 1; 1 |]; [| 5; 5 |] |]
  in
  let db = Sknn.encrypt_db data_rng pub rel in
  List.map string_of_int (Sknn.query ctx db ~point:[| 0; 1 |] ~k:2)

(* ---------------- the equivalence check ---------------- *)

let check_equiv name ~reduces scenario =
  let batched = run ~batching:true scenario in
  let single = run ~batching:false scenario in
  Alcotest.(check (list string)) (name ^ ": results byte-identical") single.repr batched.repr;
  Alcotest.(check bool) (name ^ ": S2 trace identical") true (single.trace = batched.trace);
  Alcotest.(check (list (pair string int))) (name ^ ": crypto op counters") single.ops
    batched.ops;
  if reduces then begin
    Alcotest.(check bool)
      (Printf.sprintf "%s: rounds drop (%d -> %d)" name single.rounds batched.rounds)
      true
      (batched.rounds < single.rounds);
    Alcotest.(check bool)
      (Printf.sprintf "%s: messages drop (%d -> %d)" name single.msgs batched.msgs)
      true
      (batched.msgs < single.msgs)
  end
  else begin
    Alcotest.(check int) (name ^ ": rounds unchanged") single.rounds batched.rounds;
    Alcotest.(check int) (name ^ ": bytes unchanged") single.bytes batched.bytes
  end;
  (* batch framing trades per-frame headers + labels for 5-byte element
     prefixes: payload dominates, so batching saves a little and never
     costs — total bytes land in [single/2, single] *)
  Alcotest.(check bool)
    (Printf.sprintf "%s: bytes bounded (%d vs %d)" name single.bytes batched.bytes)
    true
    (batched.bytes <= single.bytes && 2 * batched.bytes >= single.bytes)

let scenarios =
  [ ("qry_f", true, qry Sectopk.Query.Full);
    ("qry_e", true, qry Sectopk.Query.Elim);
    ("enc_sort_network", true, enc_sort Enc_sort.Network);
    ("enc_sort_blinded", false, enc_sort Enc_sort.Blinded);
    (* SecJoin's combine step is one request, so batching finds
       nothing to coalesce *)
    ("sec_join", false, sec_join);
    ("sknn", true, sknn) ]

let cases =
  List.map
    (fun (name, reduces, scenario) ->
      Alcotest.test_case name `Slow (fun () -> check_equiv name ~reduces scenario))
    scenarios

let suite = [ ("inproc", cases) ]
let () = Alcotest.run "batch" suite
