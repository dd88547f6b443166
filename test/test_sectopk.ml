(* End-to-end tests of the SecTopK scheme: Enc / Token / SecQuery in all
   three variants against the plaintext NRA and the naive oracle, plus
   leakage-profile checks. *)

open Crypto
open Dataset
open Topk
open Sectopk

let rng = Rng.create ~seed:"test_sectopk"
let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128

let make_ctx () = Proto.Ctx.of_keys ~blind_bits:48 (Rng.fork rng ~label:"ctx") pub sk

let ids_of rel = List.init (Relation.n_rows rel) (fun i -> Relation.object_id rel i)

(* the paper's Figure 3 relation *)
let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let run_query ?(options = Query.default_options) rel scoring ~k =
  let ctx = make_ctx () in
  let er, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"enc") pub rel in
  let tk = Scheme.token key ~m_total:(Relation.n_attrs rel) scoring ~k in
  let res = Query.run ctx er tk options in
  (ctx, key, res)

let oracle_valid rel scoring ~k oids = Nra.valid_answer rel scoring ~k oids

(* ---------------- scheme: Enc / Token ---------------- *)

let test_encrypt_shape () =
  let er, key = Scheme.encrypt ~s:4 rng pub fig3 in
  Alcotest.(check int) "rows" 5 (Scheme.n_rows er);
  Alcotest.(check int) "lists" 3 (Scheme.n_attrs er);
  Alcotest.(check int) "ehl keys" 4 (List.length key.Scheme.ehl_keys);
  Alcotest.(check bool) "size accounted" true (Scheme.size_bytes pub er > 0)

let test_encrypt_lists_sorted () =
  (* each permuted list must decrypt to a descending score sequence *)
  let er, _ = Scheme.encrypt ~s:4 rng pub fig3 in
  for li = 0 to 2 do
    let scores =
      List.init 5 (fun d ->
          let e = Scheme.entry er ~list:li ~depth:d in
          Bignum.Nat.to_int (Paillier.decrypt sk e.Proto.Enc_item.score))
    in
    Alcotest.(check bool)
      (Printf.sprintf "list %d descending" li)
      true
      (List.for_all2 ( >= ) (List.filteri (fun i _ -> i < 4) scores) (List.tl scores))
  done

let test_token_permutation () =
  let _, key = Scheme.encrypt ~s:4 rng pub fig3 in
  let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let lists = List.map fst tk.Scheme.attrs in
  Alcotest.(check int) "k" 2 tk.Scheme.k;
  Alcotest.(check (list int)) "all three lists, permuted" [ 0; 1; 2 ] (List.sort compare lists)

let test_token_attribute_subset () =
  (* querying attrs {0,2} must target exactly the permuted images of 0,2 *)
  let _, key = Scheme.encrypt ~s:4 rng pub fig3 in
  let prp = Prp.create ~key:key.Scheme.prp_key ~domain:3 in
  let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 2 ]) ~k:1 in
  Alcotest.(check (list int)) "permuted images"
    (List.sort compare [ Prp.apply prp 0; Prp.apply prp 2 ])
    (List.sort compare (List.map fst tk.Scheme.attrs))

(* every entry of every list, as the decimal strings of its ciphertexts *)
let entries er =
  List.init (Scheme.n_attrs er) (fun list ->
      List.init (Scheme.n_rows er) (fun depth ->
          let e = Scheme.entry er ~list ~depth in
          List.map
            (fun c -> Bignum.Nat.to_string (Paillier.to_nat c))
            (e.Proto.Enc_item.score :: Array.to_list (Ehl.Ehl_plus.cells e.Proto.Enc_item.ehl))))

let test_parallel_encrypt () =
  (* multi-domain encryption must produce a fully functional ER *)
  let er, key = Scheme.encrypt ~s:4 ~domains:3 (Rng.fork rng ~label:"par") pub fig3 in
  let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let ctx = make_ctx () in
  let res = Query.run ctx er tk { Query.default_options with variant = Query.Elim } in
  let ids = List.map (fun (id, _, _) -> id) (Client.real_results ctx key ~ids:(ids_of fig3) res) in
  Alcotest.(check (list string)) "parallel-encrypted DB answers correctly" [ "o2"; "o1" ] ids;
  (* from one seed, every width gives the same bytes: width 1 draws item
     by item, wider widths draw everything first *)
  let plain domains = entries (fst (Scheme.encrypt ~s:4 ~domains (Rng.create ~seed:"par") pub fig3)) in
  let sharded domains =
    List.map entries
      (Array.to_list
         (fst (Scheme.encrypt_sharded ~s:4 ~domains ~shards:2 (Rng.create ~seed:"par") pub fig3)))
  in
  let plain1 = plain 1 and sharded1 = sharded 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (list (list (list string))))
        (Printf.sprintf "encrypt at width %d" domains)
        plain1 (plain domains);
      Alcotest.(check (list (list (list (list string)))))
        (Printf.sprintf "encrypt_sharded at width %d" domains)
        sharded1 (sharded domains))
    [ 2; 3 ]

let test_resolver () =
  let _, key = Scheme.encrypt ~s:4 rng pub fig3 in
  let resolver = Scheme.make_resolver key ~pub ~ids:(ids_of fig3) in
  let h = Prf.to_nat_mod ~key:(List.hd key.Scheme.ehl_keys) "o3" ~m:pub.Paillier.n in
  Alcotest.(check (option string)) "resolves" (Some "o3") (resolver h);
  Alcotest.(check (option string)) "unknown -> None" None (resolver Bignum.Nat.one)

(* PRF evaluations [f] makes on this domain, under an enabled collector *)
let count_prfs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  let c = Obs.Collector.create () in
  let v =
    Fun.protect ~finally:(fun () -> Obs.set_enabled prev) (fun () -> Obs.with_collector c f)
  in
  (v, Obs.Metrics.get (Obs.Collector.metrics c) Obs.Metrics.Prf_eval)

let test_resolver_built_once () =
  (* aligned 64x3: row i scores 64 - i everywhere, so the top k are o0..o(k-1) *)
  let rows = 64 in
  let rel = Relation.create ~name:"aligned" (Array.init rows (fun i -> Array.make 3 (rows - i))) in
  (* two provisionings of one seed, as a client re-provisioning per query:
     distinct public-key records whose moduli are equal by content *)
  let provision () = Proto.Ctx.provision ~seed:"resolver-reuse" ~key_bits:128 ~rand_bits:96 () in
  let pub1, sk1, rng1, _ = provision () and pub2, sk2, rng2, _ = provision () in
  let answer (pub, sk, ctx_rng) (er, key) ~k =
    let ctx = Proto.Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
    let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k in
    (ctx, Query.run ctx er tk { Query.default_options with variant = Query.Elim })
  in
  (* every open passes a freshly built id list *)
  let open_ids key (ctx, res) =
    List.map (fun (id, _, _) -> id) (Client.real_results ctx key ~ids:(ids_of rel) res)
  in
  let client1 = (pub1, sk1, rng1) and client2 = (pub2, sk2, rng2) in
  let enc label = Scheme.encrypt ~s:4 (Rng.fork rng ~label) pub1 rel in
  let ((_, key_a) as db_a) = enc "reuse-a" in
  let first = answer client1 db_a ~k:3 in
  let ids, prfs = count_prfs (fun () -> open_ids key_a first) in
  Alcotest.(check int) "first open: one PRF per row" rows prfs;
  Alcotest.(check (list string)) "first answer" [ "o0"; "o1"; "o2" ] ids;
  let ids, prfs = count_prfs (fun () -> open_ids key_a (answer client2 db_a ~k:2)) in
  Alcotest.(check int) "second open: no PRF" 0 prfs;
  Alcotest.(check (list string)) "second answer" [ "o0"; "o1" ] ids;
  let ctx, res = first in
  Alcotest.(check (list (option string)))
    "winner missing from the ids -> None"
    [ None; Some "o1"; Some "o2" ]
    (List.map
       (fun (o : Client.opened) -> o.Client.id)
       (Client.open_result ctx key_a ~ids:(List.tl (ids_of rel)) res));
  let ((_, key_b) as db_b) = enc "reuse-b" in
  let ids, prfs = count_prfs (fun () -> open_ids key_b (answer client1 db_b ~k:3)) in
  Alcotest.(check int) "second key: its own dictionary" rows prfs;
  Alcotest.(check (list string)) "second key's answer" [ "o0"; "o1"; "o2" ] ids;
  (* two domains race to build a third key's dictionary, then share it *)
  let ((_, key_c) as db_c) = enc "reuse-c" in
  let answers = Array.map (fun k -> answer client1 db_c ~k) [| 1; 2; 3 |] in
  let open_50 () = List.init 50 (fun i -> open_ids key_c answers.(i mod 3)) in
  let d1 = Domain.spawn open_50 and d2 = Domain.spawn open_50 in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let sequential = open_50 () in
  Alcotest.(check (list string)) "sequential answers" [ "o0"; "o1"; "o2" ] (List.nth sequential 2);
  Alcotest.(check (list (list string))) "domain 1 = sequential" sequential r1;
  Alcotest.(check (list (list string))) "domain 2 = sequential" sequential r2

(* ---------------- SecQuery on Figure 3 ---------------- *)

let check_fig3_answer variant () =
  let options = { Query.default_options with variant } in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let ctx, key, res = run_query ~options fig3 f ~k:2 in
  let reals = Client.real_results ctx key ~ids:(ids_of fig3) res in
  (* top-2 = X3 (o2, score 18) and X2 (o1, score 16), per Figure 3c *)
  let ids = List.map (fun (id, _, _) -> id) reals in
  Alcotest.(check (list string)) "top-2 objects" [ "o2"; "o1" ] ids;
  (* worst scores at halting = exact scores 18, 16 (Figure 3c) *)
  let worsts = List.map (fun (_, w, _) -> w) reals in
  Alcotest.(check (list int)) "worst scores" [ 18; 16 ] worsts;
  Alcotest.(check bool) "halted by bound test" true res.Query.halted

let test_fig3_full = check_fig3_answer Query.Full
let test_fig3_elim = check_fig3_answer Query.Elim
let test_fig3_batched = check_fig3_answer (Query.Batched 3)

let test_fig3_halting_depth () =
  (* the per-depth variants must stop at depth 3 exactly as Figure 3c *)
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let _, _, res = run_query ~options:{ Query.default_options with variant = Query.Elim } fig3 f ~k:2 in
  Alcotest.(check int) "halting depth 3" 3 res.Query.halting_depth

let test_fig3_network_sort () =
  let options = { Query.default_options with variant = Query.Elim; sort = Proto.Enc_sort.Network } in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let ctx, key, res = run_query ~options fig3 f ~k:2 in
  let ids = List.map (fun (id, _, _) -> id) (Client.real_results ctx key ~ids:(ids_of fig3) res) in
  Alcotest.(check (list string)) "network sort same answer" [ "o2"; "o1" ] ids

let test_fig3_kth_only () =
  let options = { Query.default_options with variant = Query.Elim; halting = `KthOnly } in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let ctx, key, res = run_query ~options fig3 f ~k:2 in
  let ids = List.map (fun (id, _, _) -> id) (Client.real_results ctx key ~ids:(ids_of fig3) res) in
  Alcotest.(check (list string)) "paper-literal halting, same answer here" [ "o2"; "o1" ] ids

(* ---------------- SecQuery vs oracle on random data ---------------- *)

let random_rel seed rows attrs hi =
  Synthetic.generate ~seed ~name:"t" ~rows ~attrs (Synthetic.Uniform { lo = 0; hi })

let secure_matches_oracle ?(variant = Query.Elim) seed ~rows ~attrs ~k ~m =
  let rel = random_rel seed rows attrs 30 in
  let f = Scoring.sum_of (List.init m Fun.id) in
  let options = { Query.default_options with variant } in
  let ctx, key, res = run_query ~options rel f ~k in
  let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
  let oids = List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals in
  oracle_valid rel f ~k oids

let prop_secure_elim =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"Qry_E matches oracle (random relations)"
       QCheck.(pair (int_bound 10_000) (int_range 1 4))
       (fun (seed, k) -> secure_matches_oracle (string_of_int seed) ~rows:12 ~attrs:3 ~k ~m:3))

let prop_secure_full =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4 ~name:"Qry_F matches oracle (random relations)"
       QCheck.(pair (int_bound 10_000) (int_range 1 3))
       (fun (seed, k) ->
         secure_matches_oracle ~variant:Query.Full (string_of_int seed) ~rows:10 ~attrs:3 ~k ~m:3))

let prop_secure_batched =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:4 ~name:"Qry_Ba matches oracle (random relations)"
       QCheck.(pair (int_bound 10_000) (int_range 2 5))
       (fun (seed, p) ->
         secure_matches_oracle ~variant:(Query.Batched p) (string_of_int seed) ~rows:12 ~attrs:3
           ~k:2 ~m:3))

let test_weighted_query () =
  let rel = random_rel "weighted" 10 3 20 in
  let f = Scoring.create [ (0, 3); (2, 2) ] in
  let ctx, key, res = run_query ~options:{ Query.default_options with variant = Query.Elim } rel f ~k:3 in
  let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
  let oids = List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals in
  Alcotest.(check bool) "weighted answer oracle-valid" true (oracle_valid rel f ~k:3 oids)

let test_duplicate_heavy () =
  (* many ties / duplicate values stress SecDedup and SecUpdate *)
  let rel = Relation.create ~name:"dup"
      [| [| 5; 5 |]; [| 5; 5 |]; [| 5; 5 |]; [| 4; 6 |]; [| 6; 4 |]; [| 1; 1 |] |] in
  let f = Scoring.sum_of [ 0; 1 ] in
  let ctx, key, res = run_query ~options:{ Query.default_options with variant = Query.Full } rel f ~k:3 in
  let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
  let oids = List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals in
  Alcotest.(check bool) "tie-heavy answer oracle-valid" true (oracle_valid rel f ~k:3 oids)

let test_k_equals_n () =
  let rel = random_rel "kn" 5 2 20 in
  let f = Scoring.sum_of [ 0; 1 ] in
  let ctx, key, res = run_query ~options:{ Query.default_options with variant = Query.Elim } rel f ~k:5 in
  let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
  Alcotest.(check int) "all objects returned" 5 (List.length reals)

let test_max_depth_cap () =
  let rel = random_rel "cap" 30 3 30 in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let options = { Query.default_options with variant = Query.Elim; max_depth = Some 2 } in
  let _, _, res = run_query ~options rel f ~k:5 in
  Alcotest.(check bool) "did not halt" false res.Query.halted;
  Alcotest.(check int) "stopped at cap" 2 res.Query.halting_depth;
  Alcotest.(check int) "per-depth timings recorded" 2 (Array.length res.Query.depth_seconds)

let prop_halting_depth_matches_nra =
  (* the strongest fidelity property: the oblivious execution consumes
     exactly as many depths as plaintext NRA (the seen-vector best-score
     refresh is what makes this exact rather than merely conservative) *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5 ~name:"SecQuery halting depth = plaintext NRA depth"
       QCheck.(pair (int_bound 10_000) (int_range 1 3))
       (fun (seed, k) ->
         let rel =
           Synthetic.generate ~seed:(string_of_int seed) ~name:"hd" ~rows:14 ~attrs:3
             (Synthetic.Correlated { base = Synthetic.Uniform { lo = 0; hi = 200 }; noise = 5 })
         in
         let f = Scoring.sum_of [ 0; 1; 2 ] in
         let sl = Sorted_lists.of_relation rel in
         let _, nra_stats = Nra.run sl f ~k in
         let _, _, res =
           run_query ~options:{ Query.default_options with variant = Query.Elim } rel f ~k
         in
         res.Query.halting_depth = nra_stats.Nra.halting_depth))

let test_single_attribute_query () =
  (* m = 1 degenerates SecWorst (no others) and SecRefresh (no unseen list) *)
  let rel = random_rel "m1" 12 3 25 in
  let f = Scoring.sum_of [ 1 ] in
  let ctx, key, res = run_query ~options:{ Query.default_options with variant = Query.Elim } rel f ~k:3 in
  let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
  let oids = List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals in
  Alcotest.(check bool) "m=1 oracle-valid" true (oracle_valid rel f ~k:3 oids);
  (* with one list, NRA halts as soon as k rows are read *)
  Alcotest.(check bool) "halts at ~k" true (res.Query.halting_depth <= 5)

let test_adaptive_queries_same_db () =
  (* two different tokens against one encrypted DB, then a repeat of the
     first: all answers correct, and the query pattern records the repeat *)
  let rel = random_rel "adaptive" 12 4 25 in
  let er, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"enc-ad") pub rel in
  let ask scoring k =
    let ctx = make_ctx () in
    let tk = Scheme.token key ~m_total:4 scoring ~k in
    let res = Query.run ctx er tk { Query.default_options with variant = Query.Elim } in
    let reals = Client.real_results ctx key ~ids:(ids_of rel) res in
    ( tk,
      List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals )
  in
  let f1 = Scoring.sum_of [ 0; 1 ] and f2 = Scoring.sum_of [ 2; 3 ] in
  let t1, a1 = ask f1 2 in
  let t2, a2 = ask f2 3 in
  let t3, a3 = ask f1 2 in
  Alcotest.(check bool) "q1 valid" true (oracle_valid rel f1 ~k:2 a1);
  Alcotest.(check bool) "q2 valid" true (oracle_valid rel f2 ~k:3 a2);
  Alcotest.(check (list int)) "repeat gives same answer" a1 a3;
  let qp = Leakage.query_pattern [ t1; t2; t3 ] in
  Alcotest.(check bool) "QP records the repeat" true qp.(2).(0);
  Alcotest.(check bool) "QP distinguishes q2" false qp.(1).(0)

let test_full_variant_hides_uniqueness () =
  (* Qry_F reveals no uniqueness pattern: its trace must contain zero
     SecDupElim counts, while Qry_E's contains one per depth *)
  let rel = random_rel "upd" 10 3 6 (* small range -> duplicates likely *) in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let trace_of variant =
    let ctx, _, _ = run_query ~options:{ Query.default_options with variant } rel f ~k:2 in
    Leakage.of_trace (Proto.Ctx.trace ctx)
  in
  let p_full = trace_of Query.Full in
  let p_elim = trace_of Query.Elim in
  Alcotest.(check (list int)) "Qry_F leaks no UP" [] p_full.Leakage.uniqueness_counts;
  Alcotest.(check bool) "Qry_E leaks UP" true (p_elim.Leakage.uniqueness_counts <> [])

(* ---------------- bandwidth accounting ---------------- *)

let test_bandwidth_recorded () =
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let ctx, _, _ = run_query ~options:{ Query.default_options with variant = Query.Elim } fig3 f ~k:2 in
  let ch = (Proto.Ctx.channel ctx) in
  Alcotest.(check bool) "bytes flowed" true (Proto.Channel.bytes_total ch > 0);
  Alcotest.(check bool) "rounds recorded" true (Proto.Channel.rounds_total ch > 0);
  let labels = List.map fst (Proto.Channel.bytes_by_label ch) in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " present") true (List.mem l labels))
    [ "SecWorst"; "SecUpdate"; "SecRefresh"; "EncSort"; "EncCompare" ];
  (* best scores come from SecRefresh alone (DESIGN §3a.13) *)
  Alcotest.(check bool) "SecBest absent" false (List.mem "SecBest" labels)

(* ---------------- leakage ---------------- *)

let test_query_pattern () =
  let _, key = Scheme.encrypt ~s:4 rng pub fig3 in
  let t1 = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1 ]) ~k:2 in
  let t2 = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 2 ]) ~k:2 in
  let qp = Leakage.query_pattern [ t1; t2; t1 ] in
  Alcotest.(check bool) "diagonal" true (qp.(0).(0) && qp.(1).(1) && qp.(2).(2));
  Alcotest.(check bool) "repeat detected" true qp.(2).(0);
  Alcotest.(check bool) "distinct not flagged" false qp.(1).(0)

let test_leakage_same_shape_for_isomorphic_dbs () =
  (* two relations with identical duplicate structure but different values:
     S2's view must have the same shape (the CQA simulation argument) *)
  let rel_a = Relation.create ~name:"a" [| [| 9; 7 |]; [| 6; 5 |]; [| 3; 2 |] |] in
  let rel_b = Relation.create ~name:"b" [| [| 90; 70 |]; [| 60; 50 |]; [| 30; 20 |] |] in
  let f = Scoring.sum_of [ 0; 1 ] in
  let profile rel =
    let ctx = make_ctx () in
    let er, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:("enc" ^ Relation.name rel)) pub rel in
    let tk = Scheme.token key ~m_total:2 f ~k:2 in
    let res = Query.run ctx er tk { Query.default_options with variant = Query.Elim } in
    (Leakage.of_trace (Proto.Ctx.trace ctx), res.Query.halting_depth)
  in
  let pa, da = profile rel_a and pb, db = profile rel_b in
  Alcotest.(check int) "same halting depth" da db;
  Alcotest.(check bool) "same S2 view shape" true (Leakage.same_shape pa pb)

let test_leakage_profile_contents () =
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let ctx, _, res = run_query ~options:{ Query.default_options with variant = Query.Elim } fig3 f ~k:2 in
  let p = Leakage.of_trace (Proto.Ctx.trace ctx) in
  (* S2's equality events per depth: one per SecWorst instance (m = 3)
     plus SecUpdate's grid once T is non-empty (every depth but the
     first) — no SecBest history scans *)
  let d = res.Query.halting_depth in
  Alcotest.(check int) "equality rounds = m per depth + SecUpdate" ((3 * d) + (d - 1))
    p.Leakage.equality_rounds;
  Alcotest.(check bool) "uniqueness pattern revealed (Qry_E)" true
    (List.length p.Leakage.uniqueness_counts > 0);
  Alcotest.(check bool) "halting depth matches trace era" true (res.Query.halting_depth = 3)

(* ---------------- codec ---------------- *)

let test_codec_key_roundtrip () =
  let _, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"codeck") pub fig3 in
  let key' = Codec.decode_secret_key (Codec.encode_secret_key key) in
  Alcotest.(check string) "prp key" key.Scheme.prp_key key'.Scheme.prp_key;
  Alcotest.(check int) "s" key.Scheme.s key'.Scheme.s;
  Alcotest.(check (list string)) "ehl keys" key.Scheme.ehl_keys key'.Scheme.ehl_keys

let test_codec_token_roundtrip () =
  let _, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"codect") pub fig3 in
  let tk = Scheme.token key ~m_total:3 (Scoring.create [ (0, 2); (2, 5) ]) ~k:7 in
  let tk' = Codec.decode_token (Codec.encode_token tk) in
  Alcotest.(check int) "k" tk.Scheme.k tk'.Scheme.k;
  Alcotest.(check (list (pair int int))) "attrs" tk.Scheme.attrs tk'.Scheme.attrs

(* Token integers are full-range u32: one that does not fit is refused
   on encoding rather than truncated into a different scoring function. *)
let test_codec_u32_range () =
  let token w = { Scheme.k = 2; attrs = [ (0, w); (1, 1) ] } in
  Alcotest.(check bool) "weight 2^32 refused" true
    (try ignore (Codec.encode_token (token (1 lsl 32))); false with Invalid_argument _ -> true);
  let top = token ((1 lsl 32) - 1) in
  Alcotest.(check (list (pair int int))) "weight 2^32 - 1 round-trips" top.Scheme.attrs
    (Codec.decode_token (Codec.encode_token top)).Scheme.attrs

let test_codec_rejects_garbage () =
  let reject name f =
    Alcotest.(check bool) name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  reject "empty" (fun () -> Codec.decode_token "");
  reject "bad magic" (fun () -> Codec.decode_token "NOPE\001");
  reject "wrong kind" (fun () -> Codec.decode_token (Codec.encode_secret_key { Scheme.prp_key = "x"; ehl_keys = [ "a" ]; s = 1 }));
  reject "trailing bytes" (fun () ->
      let _, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"codecy") pub fig3 in
      let blob = Codec.encode_secret_key key in
      Codec.decode_secret_key (blob ^ "z"))

(* Hardening properties, mirroring test_wire's mutation strategy: every
   strict prefix and every overlong extension of a codec blob is
   rejected, and single-byte mutations / arbitrary garbage never raise
   anything but [Invalid_argument] (payload mutations may legitimately
   decode to different ciphertexts — that is not a parser failure). *)

let codec_blobs =
  lazy
    (let _, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"codech") pub fig3 in
     let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
     [ ("secret-key", Codec.encode_secret_key key);
       ("token", Codec.encode_token tk) ])

let codec_decoders (s : string) : (string * (unit -> unit)) list =
  [ ("secret-key", fun () -> ignore (Codec.decode_secret_key s));
    ("token", fun () -> ignore (Codec.decode_token s)) ]

let must_reject f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let only_invalid f =
  try
    f ();
    true
  with Invalid_argument _ -> true

let test_codec_truncation_sweep () =
  List.iter
    (fun (kind, blob) ->
      let n = String.length blob in
      (* every short prefix, then a byte-granular sweep near the end *)
      let cuts = List.init (min n 48) Fun.id @ List.init (min n 48) (fun j -> n - 1 - j) in
      List.iter
        (fun cut ->
          if cut >= 0 && cut < n then
            List.iter
              (fun (who, f) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s cut %d rejected by %s" kind cut who)
                  true (must_reject f))
              (codec_decoders (String.sub blob 0 cut)))
        cuts)
    (Lazy.force codec_blobs)

let test_codec_overlong () =
  List.iter
    (fun (kind, blob) ->
      List.iter
        (fun (who, f) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s + trailing byte rejected by %s" kind who)
            true (must_reject f))
        (codec_decoders (blob ^ "\x00")))
    (Lazy.force codec_blobs)

let test_codec_mutation_safety =
  QCheck.Test.make ~count:500 ~name:"mutated codec blobs never crash"
    QCheck.(triple (int_bound 1) small_nat (int_bound 255))
    (fun (bi, pos, byte) ->
      let blobs = Array.of_list (Lazy.force codec_blobs) in
      let _, s = blobs.(bi) in
      let b = Bytes.of_string s in
      Bytes.set b (pos mod String.length s) (Char.chr byte);
      let s = Bytes.to_string b in
      List.for_all (fun (_, f) -> only_invalid f) (codec_decoders s))

let test_codec_garbage_safety =
  QCheck.Test.make ~count:500 ~name:"garbage never crashes the codec"
    QCheck.(string_gen_of_size Gen.small_nat Gen.char)
    (fun s -> List.for_all (fun (_, f) -> only_invalid f) (codec_decoders s))

(* A SHA-256 over key and token blobs, generated and hand-built (the
   largest 32-bit weight included): any byte that moves fails here
   (mirrors test_wire's frame digest). *)
let golden_blobs_sha256 = "467468184a3f045d9482e317bfa4857356dfb430683b863dc055de4e94e26d5b"

let test_codec_golden_blobs () =
  let _, key = Scheme.encrypt ~s:4 (Rng.create ~seed:"codec-golden") pub fig3 in
  let h = Sha256.init () in
  let add s =
    Sha256.update h (Printf.sprintf "%d:" (String.length s));
    Sha256.update h s
  in
  add (Codec.encode_secret_key key);
  add (Codec.encode_secret_key { Scheme.prp_key = "p"; ehl_keys = [ "a"; "bc" ]; s = 2 });
  add (Codec.encode_token (Scheme.token key ~m_total:3 (Scoring.create [ (0, 2); (2, 5) ]) ~k:7));
  add (Codec.encode_token { Scheme.k = 1; attrs = [ (0, 0xffffffff); (3, 1) ] });
  Alcotest.(check string) "blob digest" golden_blobs_sha256 (Sha256.hex (Sha256.finalize h))

(* ---------------- domain-pool determinism ---------------- *)

let test_domains_deterministic () =
  (* the domain pool must be invisible: a seeded query run with pool
     widths 1 and 4 produces bit-identical ciphertext results, the same
     S2 trace and the same channel accounting (every fan-out draws its
     randomness on the calling domain, in index order, before any item
     runs) *)
  let go domains =
    let rng = Rng.create ~seed:"domains-det" in
    let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128 in
    let ctx = Proto.Ctx.of_keys ~blind_bits:48 ~domains (Rng.fork rng ~label:"ctx") pub sk in
    let er, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"enc") pub fig3 in
    let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
    let res = Query.run ctx er tk { Query.default_options with variant = Query.Elim } in
    (ctx, res)
  in
  let ctx1, res1 = go 1 in
  let ctx4, res4 = go 4 in
  let nat_eq (a : Paillier.ciphertext) (b : Paillier.ciphertext) =
    Bignum.Nat.equal (a :> Bignum.Nat.t) (b :> Bignum.Nat.t)
  in
  Alcotest.(check int) "halting depth" res1.Query.halting_depth res4.Query.halting_depth;
  Alcotest.(check int) "top-k size" (List.length res1.Query.top) (List.length res4.Query.top);
  Alcotest.(check bool) "ciphertexts bit-identical" true
    (List.for_all2
       (fun (a : Proto.Enc_item.scored) (b : Proto.Enc_item.scored) ->
         nat_eq a.worst b.worst && nat_eq a.best b.best
         && Array.for_all2 nat_eq a.seen b.seen
         && a.ehl = b.ehl)
       res1.Query.top res4.Query.top);
  Alcotest.(check bool) "S2 traces identical" true
    (Proto.Ctx.trace_events ctx1 = Proto.Ctx.trace_events ctx4);
  Alcotest.(check int) "bytes"
    (Proto.Channel.bytes_total (Proto.Ctx.channel ctx1))
    (Proto.Channel.bytes_total (Proto.Ctx.channel ctx4));
  Alcotest.(check int) "messages"
    (Proto.Channel.messages_total (Proto.Ctx.channel ctx1))
    (Proto.Channel.messages_total (Proto.Ctx.channel ctx4));
  Alcotest.(check int) "rounds"
    (Proto.Channel.rounds_total (Proto.Ctx.channel ctx1))
    (Proto.Channel.rounds_total (Proto.Ctx.channel ctx4))

(* Qry_F, Qry_E and Qry_Ba(3) at k = 3 on a 24x3 uniform relation, each
   query's context and result handed to [add_run] with the SHA-256's
   [add] and the key's [sk]. *)
let digest_of_runs domains add_run =
  let rel =
    Synthetic.generate ~seed:"answer-digest" ~name:"u24" ~rows:24 ~attrs:3
      (Synthetic.Uniform { lo = 0; hi = 30 })
  in
  let rng = Rng.create ~seed:"answer-digest" in
  let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128 in
  let er, key = Scheme.encrypt ~s:4 (Rng.fork rng ~label:"enc") pub rel in
  let h = Sha256.init () in
  let add s = Sha256.update h (s ^ ";") in
  List.iter
    (fun (label, variant) ->
      let ctx = Proto.Ctx.of_keys ~blind_bits:48 ~domains (Rng.fork rng ~label) pub sk in
      let tk = Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:3 in
      let res = Query.run ctx er tk { Query.default_options with variant } in
      add label;
      add_run add sk ctx res)
    [ ("full", Query.Full); ("elim", Query.Elim); ("batched", Query.Batched 3) ];
  Sha256.hex (Sha256.finalize h)

let add_channel add ctx =
  let ch = Proto.Ctx.channel ctx in
  add (string_of_int (Proto.Channel.bytes_total ch));
  add (string_of_int (Proto.Channel.rounds_total ch))

(* The answer digest hashes every top-k ciphertext (worst, best, seen,
   EHL cells), the halting depth, S2's trace, and the channel's bytes and
   rounds. It is committed, so it pins the answer bytes across pool
   widths and across changes to where randomness is drawn. *)
let answer_digest domains =
  digest_of_runs domains (fun add _ ctx res ->
      let add_nat c = add (Bignum.Nat.to_string c) in
      List.iter
        (fun (it : Proto.Enc_item.scored) ->
          add_nat (Paillier.to_nat it.worst);
          add_nat (Paillier.to_nat it.best);
          Array.iter (fun c -> add_nat (Paillier.to_nat c)) it.seen;
          Array.iter (fun c -> add_nat (Paillier.to_nat c)) (Ehl.Ehl_plus.cells it.ehl))
        res.Query.top;
      add (string_of_int res.Query.halting_depth);
      List.iter
        (fun (ev : Proto.Trace.event) ->
          add
            (match ev with
            | Equality_bits { protocol; bits } ->
              protocol ^ ":eq:" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") bits)
            | Dedup_matrix { protocol; size; equal_pairs } ->
              Printf.sprintf "%s:dedup:%d:%s" protocol size
                (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) equal_pairs))
            | Comparison { protocol; ordering } -> Printf.sprintf "%s:cmp:%d" protocol ordering
            | Count { protocol; value } -> Printf.sprintf "%s:count:%d" protocol value))
        (Proto.Ctx.trace_events ctx);
      add_channel add ctx)

(* The shape digest hashes only what no draw of randomness can move: the
   halting depth, the top-k's decrypted (worst, best) scores as a sorted
   list, bytes and rounds, and S2's leakage profile in
   [Leakage.same_shape]'s terms (equality rounds, ones per round, each
   dedup matrix's size and equal-pair count, uniqueness counts,
   comparison count, sort sizes). Ciphertexts, ids and permuted
   positions are left out: a change to where randomness is drawn moves
   the answer digest and must leave this one as it is. *)
let shape_digest domains =
  digest_of_runs domains (fun add sk ctx res ->
      let ints l = String.concat "," (List.map string_of_int l) in
      let dec c = Bignum.Nat.to_string (Paillier.decrypt sk c) in
      add (string_of_int res.Query.halting_depth);
      add
        (String.concat ","
           (List.sort compare
              (List.map
                 (fun (it : Proto.Enc_item.scored) -> dec it.worst ^ "/" ^ dec it.best)
                 res.Query.top)));
      add_channel add ctx;
      let p = Leakage.of_trace (Proto.Ctx.trace ctx) in
      add (string_of_int p.Leakage.equality_rounds);
      add (ints (List.map List.length p.Leakage.equality_bits));
      add
        (String.concat ","
           (List.map
              (fun (size, pairs) -> Printf.sprintf "%d/%d" size (List.length pairs))
              p.Leakage.dedup_matrices));
      add (ints p.Leakage.uniqueness_counts);
      add (string_of_int p.Leakage.comparisons);
      add (ints p.Leakage.sort_sizes))

let committed_answer_digest = "46caf9a10d7e9ec158701645761551501dc4dd8d8f11f85b9114915caa81a098"

let test_answer_digest () =
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "digest at width %d" domains)
        committed_answer_digest (answer_digest domains))
    [ 1; 2; 4 ]

let committed_shape_digest = "c9796af1f1286a29998feda7e65de5e53e922ca3b77227feef557c86514e37bf"

let test_shape_digest () =
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "shape at width %d" domains)
        committed_shape_digest (shape_digest domains))
    [ 1; 2; 4 ]

let suite =
  [ ( "scheme",
      [ Alcotest.test_case "encrypt shape" `Quick test_encrypt_shape;
        Alcotest.test_case "lists sorted under encryption" `Quick test_encrypt_lists_sorted;
        Alcotest.test_case "token permutation" `Quick test_token_permutation;
        Alcotest.test_case "token attribute subset" `Quick test_token_attribute_subset;
        Alcotest.test_case "id resolver" `Quick test_resolver;
        Alcotest.test_case "id dictionary built once" `Quick test_resolver_built_once;
        Alcotest.test_case "parallel encryption" `Quick test_parallel_encrypt
      ] );
    ( "secquery-fig3",
      [ Alcotest.test_case "Qry_F answers Figure 3" `Quick test_fig3_full;
        Alcotest.test_case "Qry_E answers Figure 3" `Quick test_fig3_elim;
        Alcotest.test_case "Qry_Ba answers Figure 3" `Quick test_fig3_batched;
        Alcotest.test_case "halting depth = 3" `Quick test_fig3_halting_depth;
        Alcotest.test_case "network sort variant" `Quick test_fig3_network_sort;
        Alcotest.test_case "paper-literal halting" `Quick test_fig3_kth_only
      ] );
    ( "secquery-random",
      [ prop_secure_elim;
        prop_secure_full;
        prop_secure_batched;
        Alcotest.test_case "weighted scoring" `Quick test_weighted_query;
        Alcotest.test_case "duplicate-heavy relation" `Quick test_duplicate_heavy;
        Alcotest.test_case "k = n" `Quick test_k_equals_n;
        Alcotest.test_case "max_depth cap" `Quick test_max_depth_cap;
        Alcotest.test_case "single-attribute query" `Quick test_single_attribute_query;
        Alcotest.test_case "adaptive queries on one DB" `Quick test_adaptive_queries_same_db;
        Alcotest.test_case "Qry_F hides uniqueness pattern" `Quick test_full_variant_hides_uniqueness;
        Alcotest.test_case "domain pool is deterministic" `Quick test_domains_deterministic;
        Alcotest.test_case "answer digest at widths 1, 2 and 4" `Quick test_answer_digest;
        Alcotest.test_case "shape digest at widths 1, 2 and 4" `Quick test_shape_digest;
        prop_halting_depth_matches_nra
      ] );
    ("bandwidth", [ Alcotest.test_case "channel accounting" `Quick test_bandwidth_recorded ]);
    ( "codec",
      [ Alcotest.test_case "secret key roundtrip" `Quick test_codec_key_roundtrip;
        Alcotest.test_case "token roundtrip" `Quick test_codec_token_roundtrip;
        Alcotest.test_case "rejects malformed input" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "truncation sweep" `Quick test_codec_truncation_sweep;
        Alcotest.test_case "overlong input" `Quick test_codec_overlong;
        Alcotest.test_case "golden blob digest" `Quick test_codec_golden_blobs;
        Alcotest.test_case "integers beyond 32 bits refused" `Quick test_codec_u32_range;
        QCheck_alcotest.to_alcotest test_codec_mutation_safety;
        QCheck_alcotest.to_alcotest test_codec_garbage_safety
      ] );
    ( "leakage",
      [ Alcotest.test_case "query pattern" `Quick test_query_pattern;
        Alcotest.test_case "isomorphic DBs -> same S2 view shape" `Quick
          test_leakage_same_shape_for_isomorphic_dbs;
        Alcotest.test_case "profile contents" `Quick test_leakage_profile_contents
      ] )
  ]

let () = Alcotest.run "sectopk" suite
