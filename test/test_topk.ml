(* Tests for the dataset substrate and the plaintext top-k algorithms:
   relation invariants, generator shapes, sorted-list views, scoring, the
   naive oracle, and NRA correctness (exact agreement with the oracle on
   the admission threshold, plus halting behaviour). *)

open Dataset
open Topk

(* ---------------- Relation ---------------- *)

let test_relation_basics () =
  let r = Relation.create ~name:"t" [| [| 1; 2 |]; [| 3; 4 |]; [| 5; 0 |] |] in
  Alcotest.(check int) "rows" 3 (Relation.n_rows r);
  Alcotest.(check int) "attrs" 2 (Relation.n_attrs r);
  Alcotest.(check int) "value" 4 (Relation.value r ~row:1 ~attr:1);
  Alcotest.(check string) "object id" "o2" (Relation.object_id r 2);
  Alcotest.(check int) "max" 5 (Relation.max_value r)

let test_relation_validation () =
  Alcotest.check_raises "ragged" (Invalid_argument "Relation.create: ragged rows") (fun () ->
      ignore (Relation.create ~name:"x" [| [| 1 |]; [| 1; 2 |] |]));
  Alcotest.check_raises "negative" (Invalid_argument "Relation.create: negative value") (fun () ->
      ignore (Relation.create ~name:"x" [| [| -1 |] |]));
  Alcotest.check_raises "empty" (Invalid_argument "Relation.create: empty") (fun () ->
      ignore (Relation.create ~name:"x" [||]))

(* ---------------- Synthetic ---------------- *)

let test_synthetic_deterministic () =
  let a = Synthetic.generate ~seed:"s" ~name:"d" ~rows:50 ~attrs:3 (Synthetic.Uniform { lo = 0; hi = 100 }) in
  let b = Synthetic.generate ~seed:"s" ~name:"d" ~rows:50 ~attrs:3 (Synthetic.Uniform { lo = 0; hi = 100 }) in
  let equal =
    List.for_all
      (fun i ->
        List.for_all
          (fun j -> Relation.value a ~row:i ~attr:j = Relation.value b ~row:i ~attr:j)
          [ 0; 1; 2 ])
      (List.init 50 Fun.id)
  in
  Alcotest.(check bool) "same seed, same data" true equal;
  let c = Synthetic.generate ~seed:"s2" ~name:"d" ~rows:50 ~attrs:3 (Synthetic.Uniform { lo = 0; hi = 100 }) in
  let differs = Relation.value a ~row:0 ~attr:0 <> Relation.value c ~row:0 ~attr:0
                || Relation.value a ~row:1 ~attr:1 <> Relation.value c ~row:1 ~attr:1
                || Relation.value a ~row:2 ~attr:2 <> Relation.value c ~row:2 ~attr:2 in
  Alcotest.(check bool) "different seed differs somewhere" true differs

let test_synthetic_ranges () =
  let r = Synthetic.generate ~seed:"r" ~name:"u" ~rows:200 ~attrs:2 (Synthetic.Uniform { lo = 10; hi = 20 }) in
  Relation.fold_rows r ~init:() ~f:(fun () _ row ->
      Array.iter (fun v -> Alcotest.(check bool) "in [10,20]" true (v >= 10 && v <= 20)) row);
  let g = Synthetic.generate ~seed:"g" ~name:"g" ~rows:200 ~attrs:1
            (Synthetic.Gaussian { mean = 50.; stddev = 10.; max_value = 100 }) in
  Relation.fold_rows g ~init:() ~f:(fun () _ row ->
      Array.iter (fun v -> Alcotest.(check bool) "clamped" true (v >= 0 && v <= 100)) row)

let test_correlated_structure () =
  let r = Synthetic.generate ~seed:"c" ~name:"c" ~rows:100 ~attrs:4
            (Synthetic.Correlated { base = Synthetic.Uniform { lo = 100; hi = 1000 }; noise = 5 }) in
  (* attributes of the same row stay within 2*noise of each other *)
  Relation.fold_rows r ~init:() ~f:(fun () _ row ->
      let mn = Array.fold_left min max_int row and mx = Array.fold_left max 0 row in
      Alcotest.(check bool) "tight spread" true (mx - mn <= 20))

let test_uci_shapes () =
  List.iter
    (fun spec ->
      let r = Uci_shape.load spec ~seed:"u" ~scale:0.01 in
      Alcotest.(check int) (spec.Uci_shape.name ^ " attrs") spec.Uci_shape.attrs (Relation.n_attrs r);
      Alcotest.(check bool) (spec.Uci_shape.name ^ " rows scaled") true
        (Relation.n_rows r >= 1 && Relation.n_rows r <= spec.Uci_shape.full_rows / 50))
    Uci_shape.all_specs;
  Alcotest.(check int) "evaluation suite size" 4
    (List.length (Uci_shape.evaluation_suite ~seed:"u" ~scale:0.001))

(* ---------------- Sorted lists ---------------- *)

let test_sorted_lists () =
  let r = Relation.create ~name:"s" [| [| 5; 1 |]; [| 3; 9 |]; [| 7; 9 |] |] in
  let sl = Sorted_lists.of_relation r in
  Alcotest.(check int) "lists" 2 (Sorted_lists.n_lists sl);
  Alcotest.(check int) "depth" 3 (Sorted_lists.depth sl);
  (* list 0 descending: o2=7, o0=5, o1=3 *)
  let open Sorted_lists in
  Alcotest.(check (pair int int)) "list0 depth0" (2, 7)
    (let i = item sl ~list:0 ~depth:0 in (i.oid, i.score));
  Alcotest.(check (pair int int)) "list0 depth2" (1, 3)
    (let i = item sl ~list:0 ~depth:2 in (i.oid, i.score));
  (* tie on attr 1 between o1 and o2 broken by oid *)
  Alcotest.(check (pair int int)) "tie break" (1, 9)
    (let i = item sl ~list:1 ~depth:0 in (i.oid, i.score))

let prop_sorted_lists_sorted =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"sorted lists are descending permutations"
       QCheck.(int_bound 10_000)
       (fun seed ->
         let r = Synthetic.generate ~seed:(string_of_int seed) ~name:"p" ~rows:30 ~attrs:3
                   (Synthetic.Uniform { lo = 0; hi = 50 }) in
         let sl = Sorted_lists.of_relation r in
         List.for_all
           (fun li ->
             let l = Sorted_lists.list sl li in
             let sorted = ref true in
             for i = 0 to Array.length l - 2 do
               if l.(i).Sorted_lists.score < l.(i + 1).Sorted_lists.score then sorted := false
             done;
             let oids = Array.to_list (Array.map (fun it -> it.Sorted_lists.oid) l) in
             !sorted && List.sort compare oids = List.init 30 Fun.id)
           [ 0; 1; 2 ]))

(* ---------------- Scoring ---------------- *)

let rel3 = Relation.create ~name:"r3" [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let test_scoring () =
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  Alcotest.(check int) "sum all" 15 (Scoring.score f rel3 0);
  Alcotest.(check int) "arity" 3 (Scoring.arity f);
  let w = Scoring.create [ (0, 2); (2, 3) ] in
  Alcotest.(check int) "weighted" 26 (Scoring.score w rel3 0);
  Alcotest.(check int) "local" 9 (Scoring.local w ~attr:2 3);
  Alcotest.(check int) "max score" 30 (Scoring.max_score w rel3)

let test_scoring_validation () =
  Alcotest.check_raises "dup attr" (Invalid_argument "Scoring.create: duplicate attribute")
    (fun () -> ignore (Scoring.create [ (0, 1); (0, 2) ]));
  Alcotest.check_raises "neg weight" (Invalid_argument "Scoring.create: negative weight")
    (fun () -> ignore (Scoring.create [ (0, -1) ]));
  Alcotest.check_raises "all zero" (Invalid_argument "Scoring.create: all-zero weights")
    (fun () -> ignore (Scoring.create [ (0, 0) ]))

(* ---------------- Naive oracle ---------------- *)

let test_naive () =
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  (* scores: o0=15, o1=16, o2=18, o3=13, o4=3 *)
  Alcotest.(check (list (pair int int))) "top-2" [ (2, 18); (1, 16) ] (Naive_topk.run rel3 f ~k:2);
  Alcotest.(check int) "kth score" 16 (Naive_topk.kth_score rel3 f ~k:2);
  Alcotest.(check (list (pair int int))) "k > n returns all"
    [ (2, 18); (1, 16); (0, 15); (3, 13); (4, 3) ]
    (Naive_topk.run rel3 f ~k:10)

(* ---------------- NRA ---------------- *)

let test_nra_example () =
  (* the paper's Figure 3 example: 5 objects, 3 attributes, top-2 =
     {X3, X2} (scores 18, 16) *)
  let rel =
    Relation.create ~name:"fig3"
      [| [| 10; 3; 2 |] (* X1 *); [| 8; 8; 0 |] (* X2 *); [| 5; 7; 6 |] (* X3 *);
         [| 3; 2; 8 |] (* X4 *); [| 1; 1; 1 |] (* X5 *) |]
  in
  let sl = Sorted_lists.of_relation rel in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let results, stats = Nra.run sl f ~k:2 in
  let oids = List.map (fun r -> r.Nra.oid) results in
  Alcotest.(check (list int)) "top-2 objects" [ 2; 1 ] oids;
  Alcotest.(check int) "halts at depth 3 like Figure 3" 3 stats.Nra.halting_depth;
  Alcotest.(check bool) "not exhausted" false stats.Nra.exhausted

let test_nra_exhausts_small () =
  let rel = Relation.create ~name:"tiny" [| [| 1; 1 |]; [| 2; 2 |] |] in
  let sl = Sorted_lists.of_relation rel in
  let results, _ = Nra.run sl (Scoring.sum_of [ 0; 1 ]) ~k:2 in
  Alcotest.(check int) "returns both" 2 (List.length results)

let test_nra_k_exceeds_n () =
  let rel = Relation.create ~name:"tiny" [| [| 1; 1 |]; [| 2; 2 |] |] in
  let sl = Sorted_lists.of_relation rel in
  let results, stats = Nra.run sl (Scoring.sum_of [ 0; 1 ]) ~k:5 in
  Alcotest.(check int) "clamped to n" 2 (List.length results);
  Alcotest.(check bool) "exhausted" true stats.Nra.exhausted

let nra_agrees_with_oracle ?check_every rel f k =
  let sl = Sorted_lists.of_relation rel in
  let results, _ = Nra.run ?check_every sl f ~k in
  Nra.valid_answer rel f ~k (List.map (fun r -> r.Nra.oid) results)

let prop_nra_correct =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"NRA answers are oracle-valid"
       QCheck.(triple (int_bound 100_000) (int_range 1 10) (int_range 2 4))
       (fun (seed, k, m) ->
         let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"nra" ~rows:60 ~attrs:m
                     (Synthetic.Uniform { lo = 0; hi = 40 }) in
         nra_agrees_with_oracle rel (Scoring.sum_of (List.init m Fun.id)) k))

let prop_nra_correct_weighted =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"NRA with non-binary weights"
       QCheck.(triple (int_bound 100_000) (int_range 1 8) (int_range 1 9))
       (fun (seed, k, w) ->
         let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"nraw" ~rows:50 ~attrs:3
                     (Synthetic.Uniform { lo = 0; hi = 30 }) in
         let f = Scoring.create [ (0, w); (1, 1); (2, 2) ] in
         nra_agrees_with_oracle rel f k))

let prop_nra_batched_same_answers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"batched halting check stays correct"
       QCheck.(triple (int_bound 100_000) (int_range 1 6) (int_range 2 25))
       (fun (seed, k, p) ->
         let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"nrab" ~rows:50 ~attrs:3
                     (Synthetic.Uniform { lo = 0; hi = 40 }) in
         let f = Scoring.sum_of [ 0; 1; 2 ] in
         nra_agrees_with_oracle ~check_every:p rel f k))

let prop_nra_batched_halts_no_earlier =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"batched halting depth >= per-depth halting depth"
       QCheck.(pair (int_bound 100_000) (int_range 2 10))
       (fun (seed, p) ->
         let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"nrah" ~rows:60 ~attrs:3
                     (Synthetic.Uniform { lo = 0; hi = 40 }) in
         let f = Scoring.sum_of [ 0; 1; 2 ] in
         let sl = Sorted_lists.of_relation rel in
         let _, s1 = Nra.run sl f ~k:5 in
         let _, sp = Nra.run ~check_every:p sl f ~k:5 in
         sp.Nra.halting_depth >= s1.Nra.halting_depth))

let test_nra_skewed_halts_early () =
  (* correlated data lets NRA stop long before exhausting the lists *)
  let rel = Synthetic.generate ~seed:"skew" ~name:"sk" ~rows:500 ~attrs:3
              (Synthetic.Correlated { base = Synthetic.Uniform { lo = 0; hi = 10_000 }; noise = 3 }) in
  let sl = Sorted_lists.of_relation rel in
  let _, stats = Nra.run sl (Scoring.sum_of [ 0; 1; 2 ]) ~k:5 in
  Alcotest.(check bool) "halts well before n" true (stats.Nra.halting_depth < 100)

(* ---------------- TA ---------------- *)

let test_ta_example () =
  let sl = Sorted_lists.of_relation rel3 in
  let f = Scoring.sum_of [ 0; 1; 2 ] in
  let results, stats = Ta.run sl f ~k:2 in
  Alcotest.(check (list (pair int int))) "exact top-2"
    [ (2, 18); (1, 16) ]
    (List.map (fun r -> (r.Ta.oid, r.Ta.score)) results);
  Alcotest.(check bool) "random accesses happened" true (stats.Ta.random_accesses > 0)

(* TA halts once the k-th score reaches the threshold, so on a tie at
   rank k it may keep either tied object while the oracle breaks ties by
   id. A correct answer has the oracle's score list, distinct ids, and
   each object's exact score. *)
let ta_agrees_with_oracle (seed, k, m) =
  let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"ta" ~rows:50 ~attrs:m
              (Synthetic.Uniform { lo = 0; hi = 40 }) in
  let f = Scoring.sum_of (List.init m Fun.id) in
  let results, _ = Ta.run (Sorted_lists.of_relation rel) f ~k in
  let ids = List.map (fun r -> r.Ta.oid) results in
  List.map (fun r -> r.Ta.score) results = List.map snd (Naive_topk.run rel f ~k)
  && List.for_all (fun r -> r.Ta.score = Scoring.score f rel r.Ta.oid) results
  && List.length (List.sort_uniq compare ids) = List.length ids

let prop_ta_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"TA returns the exact oracle answer"
       QCheck.(triple (int_bound 100_000) (int_range 1 8) (int_range 2 4))
       ta_agrees_with_oracle)

(* (seed, k, m) cases that tie at rank k: at (78453, 6, 2) TA keeps
   object 28 and the oracle object 27, both at score 64 *)
let test_ta_ties_at_rank_k () =
  List.iter
    (fun ((seed, k, m) as case) ->
      Alcotest.(check bool) (Printf.sprintf "(%d, %d, %d)" seed k m) true
        (ta_agrees_with_oracle case))
    [ (78453, 6, 2); (12900, 4, 2) ]

let prop_ta_halts_no_later_than_nra =
  (* TA's exact scores let it halt at or before NRA's depth — the price is
     the random accesses NRA is chosen to avoid *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"TA halting depth <= NRA halting depth"
       QCheck.(pair (int_bound 100_000) (int_range 1 6))
       (fun (seed, k) ->
         let rel = Synthetic.generate ~seed:(string_of_int seed) ~name:"tanra" ~rows:50 ~attrs:3
                     (Synthetic.Uniform { lo = 0; hi = 40 }) in
         let f = Scoring.sum_of [ 0; 1; 2 ] in
         let sl = Sorted_lists.of_relation rel in
         let _, ta = Ta.run sl f ~k in
         let _, nra = Nra.run sl f ~k in
         ta.Ta.halting_depth <= nra.Nra.halting_depth))

let test_ta_random_access_growth () =
  (* every distinct object seen costs one random access *)
  let rel = Synthetic.generate ~seed:"taacc" ~name:"ta" ~rows:40 ~attrs:3
      (Synthetic.Uniform { lo = 0; hi = 30 }) in
  let sl = Sorted_lists.of_relation rel in
  let _, stats = Ta.run sl (Scoring.sum_of [ 0; 1; 2 ]) ~k:5 in
  Alcotest.(check bool) "at least k accesses" true (stats.Ta.random_accesses >= 5);
  Alcotest.(check bool) "at most 3 per depth" true
    (stats.Ta.random_accesses <= 3 * stats.Ta.halting_depth)

let suite =
  [ ( "relation",
      [ Alcotest.test_case "basics" `Quick test_relation_basics;
        Alcotest.test_case "validation" `Quick test_relation_validation
      ] );
    ( "synthetic",
      [ Alcotest.test_case "deterministic" `Quick test_synthetic_deterministic;
        Alcotest.test_case "ranges" `Quick test_synthetic_ranges;
        Alcotest.test_case "correlated structure" `Quick test_correlated_structure;
        Alcotest.test_case "uci shapes" `Quick test_uci_shapes
      ] );
    ( "sorted-lists",
      [ Alcotest.test_case "ordering and ties" `Quick test_sorted_lists;
        prop_sorted_lists_sorted
      ] );
    ( "scoring",
      [ Alcotest.test_case "evaluation" `Quick test_scoring;
        Alcotest.test_case "validation" `Quick test_scoring_validation
      ] );
    ("naive", [ Alcotest.test_case "oracle" `Quick test_naive ]);
    ( "nra",
      [ Alcotest.test_case "paper Figure 3" `Quick test_nra_example;
        Alcotest.test_case "exhaustion" `Quick test_nra_exhausts_small;
        Alcotest.test_case "k > n" `Quick test_nra_k_exceeds_n;
        Alcotest.test_case "skewed halts early" `Quick test_nra_skewed_halts_early;
        prop_nra_correct;
        prop_nra_correct_weighted;
        prop_nra_batched_same_answers;
        prop_nra_batched_halts_no_earlier
      ] );
    ( "ta",
      [ Alcotest.test_case "exact answers on the example" `Quick test_ta_example;
        Alcotest.test_case "random access accounting" `Quick test_ta_random_access_growth;
        Alcotest.test_case "ties at rank k" `Quick test_ta_ties_at_rank_k;
        prop_ta_matches_oracle;
        prop_ta_halts_no_later_than_nra
      ] )
  ]

let () = Alcotest.run "topk" suite
