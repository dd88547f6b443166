(* Tests for the secure top-k join operator (Section 12): encryption setup,
   the join predicate under encryption, SecFilter, the full operator
   against a plaintext join oracle, and the join pick's rounds, op counts,
   width determinism and desync errors. *)

open Bignum
open Crypto
open Dataset

let rng = Rng.create ~seed:"test_join"
let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128
let ctx = Proto.Ctx.of_keys ~blind_bits:48 (Rng.fork rng ~label:"ctx") pub sk
let dec c = Nat.to_int (Paillier.decrypt sk c)

(* R1: (join_attr, score_attr); R2: (join_attr, score_attr, extra) *)
let r1 = Relation.create ~name:"r1" [| [| 1; 10 |]; [| 2; 20 |]; [| 3; 30 |]; [| 2; 5 |] |]
let r2 = Relation.create ~name:"r2" [| [| 2; 100 |]; [| 3; 50 |]; [| 9; 7 |] |]

(* plaintext oracle: equi-join r1.0 = r2.0, score r1.1 + r2.1 *)
let plain_join_scores () =
  let acc = ref [] in
  Relation.fold_rows r1 ~init:() ~f:(fun () _ row1 ->
      Relation.fold_rows r2 ~init:() ~f:(fun () _ row2 ->
          if row1.(0) = row2.(0) then acc := (row1.(1) + row2.(1)) :: !acc));
  List.sort (fun a b -> compare b a) !acc

let setup () =
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 (Rng.fork rng ~label:"enc") pub r1 r2 in
  (e1, e2, key)

let tk_of key k = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k

let test_encrypt_pair_shape () =
  let e1, e2, key = setup () in
  Alcotest.(check int) "r1 tuples" 4 (Array.length e1.Join.Join_scheme.tuples);
  Alcotest.(check int) "r2 tuples" 3 (Array.length e2.Join.Join_scheme.tuples);
  Alcotest.(check int) "r1 attrs" 2 e1.Join.Join_scheme.m;
  Alcotest.(check int) "keys" 4 (List.length key.Join.Join_scheme.ehl_keys)

let test_token_roundtrip () =
  let _, _, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  Alcotest.(check bool) "permuted indices in range" true
    (tk.Join.Join_scheme.join_left < 2 && tk.Join.Join_scheme.join_right < 2
    && tk.Join.Join_scheme.score_left < 2 && tk.Join.Join_scheme.score_right < 2)

let test_combine_predicate () =
  let e1, e2, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  let combined = Join.Sec_join.combine ctx e1 e2 tk in
  Alcotest.(check int) "n1*n2 pairs" 12 (List.length combined);
  (* matching pairs decrypt to score+1; non-matching to 0 *)
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) combined in
  let nonzero = List.filter (fun s -> s <> 0) scores in
  (* matches: (2,20)x(2,100)=121, (2,5)x(2,100)=106, (3,30)x(3,50)=81 *)
  Alcotest.(check (list int)) "match scores (+1 offset)" [ 81; 106; 121 ]
    (List.sort compare nonzero)

let test_filter_drops_nonmatches () =
  let e1, e2, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  let combined = Join.Sec_join.combine ctx e1 e2 tk in
  let surviving = Join.Sec_join.filter ctx combined in
  Alcotest.(check int) "three matches survive" 3 (List.length surviving);
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) surviving in
  Alcotest.(check (list int)) "scores preserved under double blinding" [ 81; 106; 121 ]
    (List.sort compare scores)

let test_filter_preserves_attrs () =
  let e1, e2, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  let surviving = Join.Sec_join.filter ctx (Join.Sec_join.combine ctx e1 e2 tk) in
  (* every survivor carries 4 attributes whose multiset of decryptions is a
     real (r1 row, r2 row) concatenation *)
  List.iter
    (fun (t : Join.Sec_join.joined) ->
      Alcotest.(check int) "4 carried attrs" 4 (Array.length t.Join.Sec_join.attrs);
      let vals = List.sort compare (Array.to_list (Array.map dec t.Join.Sec_join.attrs)) in
      let expected =
        [ [ 2; 2; 20; 100 ]; [ 2; 2; 5; 100 ]; [ 3; 3; 30; 50 ] ] |> List.map (List.sort compare)
      in
      Alcotest.(check bool) "attrs form a real joined tuple" true (List.mem vals expected))
    surviving

let test_top_k_join () =
  let e1, e2, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  let top = Join.Sec_join.top_k ctx e1 e2 tk in
  Alcotest.(check int) "k results" 2 (List.length top);
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) top in
  Alcotest.(check (list int)) "top-2 join scores, offset removed" [ 120; 105 ] scores

let test_top_k_join_oracle () =
  let e1, e2, key = setup () in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:3 in
  let top = Join.Sec_join.top_k ctx e1 e2 tk in
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) top in
  Alcotest.(check (list int)) "matches plaintext join oracle" (plain_join_scores ()) scores

let test_join_empty_result () =
  let ra = Relation.create ~name:"ra" [| [| 1; 5 |] |] in
  let rb = Relation.create ~name:"rb" [| [| 2; 7 |] |] in
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 (Rng.fork rng ~label:"enc2") pub ra rb in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:5 in
  Alcotest.(check int) "no matches -> empty" 0 (List.length (Join.Sec_join.top_k ctx e1 e2 tk))

let test_join_zero_score_survives () =
  (* a genuine match whose total score is 0 must not be filtered out *)
  let ra = Relation.create ~name:"ra" [| [| 7; 0 |] |] in
  let rb = Relation.create ~name:"rb" [| [| 7; 0 |] |] in
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 (Rng.fork rng ~label:"enc3") pub ra rb in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:1 in
  let top = Join.Sec_join.top_k ctx e1 e2 tk in
  Alcotest.(check int) "zero-score match kept" 1 (List.length top);
  Alcotest.(check int) "score is 0" 0 (dec (List.hd top).Join.Sec_join.score)

let test_filter_leaks_only_count () =
  let e1, e2, key = setup () in
  let before = Proto.Trace.length (Proto.Ctx.trace ctx) in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  ignore (Join.Sec_join.filter ctx (Join.Sec_join.combine ctx e1 e2 tk));
  let events =
    List.filteri
      (fun i _ -> i >= before)
      (Proto.Trace.events (Proto.Ctx.trace ctx))
  in
  let count_events =
    List.filter (function Proto.Trace.Count { protocol = "SecFilter"; _ } -> true | _ -> false) events
  in
  Alcotest.(check int) "one surviving-count event" 1 (List.length count_events);
  (match count_events with
  | [ Proto.Trace.Count { value; _ } ] -> Alcotest.(check int) "count = matches" 3 value
  | _ -> Alcotest.fail "unexpected trace")

(* ---------------- multi-way join ---------------- *)

(* R1(a, s), R2(a, b, s), R3(b, s): chain R1.a = R2.a, R2.b = R3.b *)
let m1 = Relation.create ~name:"m1" [| [| 1; 10 |]; [| 2; 20 |] |]
let m2 = Relation.create ~name:"m2" [| [| 1; 5; 100 |]; [| 2; 6; 200 |]; [| 2; 9; 300 |] |]
let m3 = Relation.create ~name:"m3" [| [| 5; 1000 |]; [| 6; 2000 |]; [| 7; 3000 |] |]

let plain_3way () =
  let acc = ref [] in
  Relation.fold_rows m1 ~init:() ~f:(fun () _ r1 ->
      Relation.fold_rows m2 ~init:() ~f:(fun () _ r2 ->
          Relation.fold_rows m3 ~init:() ~f:(fun () _ r3 ->
              if r1.(0) = r2.(0) && r2.(1) = r3.(0) then
                acc := (r1.(1) + r2.(2) + r3.(1)) :: !acc)));
  List.sort (fun a b -> compare b a) !acc

let three_way () =
  let encs, key = Join.Join_scheme.encrypt_all ~s:4 (Rng.fork rng ~label:"enc3w") pub [ m1; m2; m3 ] in
  ( encs,
    Join.Sec_join.spec_of_token key ~ms:[ 2; 3; 2 ] ~chain:[ (0, 0); (1, 0) ] ~score_attrs:[ 1; 2; 1 ]
      ~k:5 )

let test_three_way_join () =
  let encs, spec = three_way () in
  let top = Join.Sec_join.top_k_multi ctx encs spec in
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) top in
  (* matches: (1,10)(1,5,100)(5,1000)=1110; (2,20)(2,6,200)(6,2000)=2220 *)
  Alcotest.(check (list int)) "3-way join matches oracle" (plain_3way ()) scores

let test_three_way_no_match () =
  let ra = Relation.create ~name:"ra" [| [| 1; 1 |] |] in
  let rb = Relation.create ~name:"rb" [| [| 1; 9; 2 |] |] in
  let rc = Relation.create ~name:"rc" [| [| 8; 3 |] |] in
  let encs, key = Join.Join_scheme.encrypt_all ~s:4 (Rng.fork rng ~label:"encnm") pub [ ra; rb; rc ] in
  let spec =
    Join.Sec_join.spec_of_token key ~ms:[ 2; 3; 2 ]
      ~chain:[ (0, 0); (1, 0) ]
      ~score_attrs:[ 1; 2; 1 ] ~k:3
  in
  (* first condition holds (1=1), second fails (9 <> 8): conjunction false *)
  Alcotest.(check int) "partial chain match is rejected" 0
    (List.length (Join.Sec_join.top_k_multi ctx encs spec))

(* ---------------- rank join over pre-sorted relations ---------------- *)

let sorted_pair () =
  let ra = Relation.create ~name:"ra"
      [| [| 1; 50 |]; [| 2; 40 |]; [| 3; 30 |]; [| 4; 20 |]; [| 5; 10 |] |] in
  let rb = Relation.create ~name:"rb"
      [| [| 2; 45 |]; [| 1; 35 |]; [| 5; 25 |]; [| 9; 15 |]; [| 3; 5 |] |] in
  Join.Join_scheme.encrypt_pair_sorted ~s:4 (Rng.fork rng ~label:"rjt") pub ~score1:1 ~score2:1 ra rb

let test_sorted_join_matches_full () =
  let (e1, e2), key = sorted_pair () in
  let tk = tk_of key 2 in
  let top, stats = Join.Sec_join.top_k_sorted_stats ctx e1 e2 tk in
  let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) top in
  (* matches: 1->85, 2->85, 3->35, 5->35; top-2 = [85; 85] *)
  Alcotest.(check (list int)) "top-2 join scores" [ 85; 85 ] scores;
  Alcotest.(check bool) "halts before the full cross product" true
    (stats.Join.Sec_join.pairs_explored < stats.Join.Sec_join.pairs_total);
  Alcotest.(check bool) "halted by the bound" true stats.Join.Sec_join.halted_early

let test_sorted_join_no_early_halt_when_sparse () =
  (* a single match hiding in the last diagonal: the scan must not stop
     before finding it *)
  let ra = Relation.create ~name:"ra" [| [| 1; 9 |]; [| 7; 0 |] |] in
  let rb = Relation.create ~name:"rb" [| [| 2; 9 |]; [| 7; 0 |] |] in
  let (e1, e2), key =
    Join.Join_scheme.encrypt_pair_sorted ~s:4 (Rng.fork rng ~label:"rjs") pub ~score1:1 ~score2:1 ra rb
  in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:1 in
  let top = Join.Sec_join.top_k_sorted ctx e1 e2 tk in
  Alcotest.(check int) "the lone match found" 1 (List.length top);
  Alcotest.(check int) "its score" 0 (dec (List.hd top).Join.Sec_join.score)

let prop_sorted_join_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"rank join = plaintext join oracle"
       QCheck.(int_bound 10_000)
       (fun seed ->
         let gen tag =
           Synthetic.generate ~seed:(string_of_int seed ^ tag) ~name:tag ~rows:6 ~attrs:2
             (Synthetic.Uniform { lo = 0; hi = 4 })
         in
         let ra = gen "a" and rb = gen "b" in
         let (e1, e2), key =
           Join.Join_scheme.encrypt_pair_sorted ~s:4 (Rng.fork rng ~label:"rjp") pub ~score1:1
             ~score2:1 ra rb
         in
         let k = 3 in
         let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k in
         let top = Join.Sec_join.top_k_sorted ctx e1 e2 tk in
         let got = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) top in
         let expected =
           let acc = ref [] in
           Relation.fold_rows ra ~init:() ~f:(fun () _ r1 ->
               Relation.fold_rows rb ~init:() ~f:(fun () _ r2 ->
                   if r1.(0) = r2.(0) then acc := (r1.(1) + r2.(1)) :: !acc));
           let sorted = List.sort (fun a b -> compare b a) !acc in
           List.filteri (fun i _ -> i < k) sorted
         in
         got = expected))

(* ---------------- the join pick ---------------- *)

let rounds_of ctx f =
  let rounds () = Proto.Channel.rounds_total (Proto.Ctx.channel ctx) in
  let before = rounds () in
  let out = f () in
  (out, rounds () - before)

(* combine is one round; top_k adds SecFilter's and the sort's *)
let test_rounds () =
  let e1, e2, key = setup () in
  let _, r = rounds_of ctx (fun () -> Join.Sec_join.combine ctx e1 e2 (tk_of key 2)) in
  Alcotest.(check int) "combine" 1 r;
  let _, r = rounds_of ctx (fun () -> Join.Sec_join.top_k ctx e1 e2 (tk_of key 2)) in
  Alcotest.(check int) "top_k" 3 r

(* the rank join's second diagonal, (0, 1) and (1, 0): tuples (1, 50)
   and (2, 40) against (1, 35) and (2, 45) both match *)
let test_diagonal_round () =
  let (e1, e2), key = sorted_pair () in
  let out, r =
    rounds_of ctx (fun () -> Join.Sec_join.combine_pairs ctx e1 e2 (tk_of key 2) [ (0, 1); (1, 0) ])
  in
  Alcotest.(check int) "one round" 1 r;
  Alcotest.(check (list int)) "both pairs match (+1 offset)" [ 86; 86 ]
    (List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) out)

(* the three operators, each on a context of its own *)
let queries () =
  let e1, e2, key = setup () in
  let encs, spec = three_way () in
  let (s1, s2), skey = sorted_pair () in
  [ ("top_k", fun c -> Join.Sec_join.top_k c e1 e2 (tk_of key 3));
    ("top_k_multi", fun c -> Join.Sec_join.top_k_multi c encs spec);
    ("top_k_sorted", fun c -> Join.Sec_join.top_k_sorted c s1 s2 (tk_of skey 2)) ]

let fresh_ctx domains =
  Proto.Ctx.of_keys ~blind_bits:48 ~domains (Rng.create ~seed:"test_join fresh") pub sk

(* With Obs on, no query counts a Damgard-Jurik operation, and S2
   decrypts. *)
let test_no_dj () =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) @@ fun () ->
  List.iter
    (fun (name, q) ->
      let c = fresh_ctx 1 in
      ignore (q c);
      let got = Obs.Metrics.get (Obs.Collector.metrics c.Proto.Ctx.obs) in
      Alcotest.(check bool) (name ^ ": S2 decrypted") true (got Obs.Metrics.Paillier_dec > 0);
      List.iter
        (fun op -> Alcotest.(check int) (name ^ ": " ^ Obs.Metrics.name op) 0 (got op))
        Obs.Metrics.[ Dj_enc; Dj_dec; Dj_mul; Dj_rerand ])
    (queries ())

(* Every draw is made on the calling domain, so the answers are the
   same ciphertexts at every width. *)
let test_widths () =
  let bytes (ts : Join.Sec_join.joined list) =
    List.concat_map
      (fun (t : Join.Sec_join.joined) ->
        List.map
          (fun c -> Nat.to_string (Paillier.to_nat c))
          (t.Join.Sec_join.score :: Array.to_list t.Join.Sec_join.attrs))
      ts
  in
  List.iter
    (fun (name, q) ->
      let one = bytes (q (fresh_ctx 1)) in
      Alcotest.(check bool) (name ^ ": answered") true (one <> []);
      Alcotest.(check (list string)) (name ^ ": widths 1 and 2") one (bytes (q (fresh_ctx 2))))
    (queries ())

(* S1 raises a typed Proto_error when S2's answer to a join pick is one
   ciphertext short or one long. *)
let test_desync () =
  let seed = "test_join desync" and key_bits = 128 and rand_bits = 96 in
  let pub, sk, ctx_rng, data_rng = Proto.Ctx.provision ~seed ~key_bits ~rand_bits () in
  let derived = Proto.Ctx.derive ctx_rng pub sk in
  let start = Proto.S2_server.provision { Proto.Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 data_rng pub r1 r2 in
  List.iter
    (fun (name, tamper) ->
      let st = Proto.S2_server.mux_state ~make:(fun ~session:_ -> start ()) in
      let backend ops =
        List.map
          (function
            | Proto.Wire.Mux_answer (Proto.Wire.Cts cts) -> Proto.Wire.Mux_answer (Proto.Wire.Cts (tamper cts))
            | reply -> reply)
          (Proto.S2_server.handle_mux_ops st ops)
      in
      let sched = Proto.Sched.create ~window_us:0 ~backend () in
      let session = Proto.Sched.open_query sched in
      let mctx = Proto.Ctx.of_derived ~blind_bits:48 ~mode:(Proto.Ctx.Mux (sched, session)) derived in
      Alcotest.(check bool) (name ^ ": Proto_error") true
        (try
           ignore (Join.Sec_join.combine mctx e1 e2 (tk_of key 2));
           false
         with Proto.Proto_error.Proto_error _ -> true);
      Proto.Sched.close_query sched session;
      Proto.Sched.stop sched)
    [ ("short", List.tl); ("long", fun cts -> List.hd cts :: cts) ]

(* S2 decrypts one difference per combination of a chain join, so the
   zeros it can read are exactly the true verdicts it records, never a
   single condition that holds. A recording backend in front of S2 keeps
   every Join_pick diff. *)
let test_one_diff_per_combination () =
  let seed = "test_join one diff" and key_bits = 128 and rand_bits = 96 in
  let pub, sk, ctx_rng, data_rng = Proto.Ctx.provision ~seed ~key_bits ~rand_bits () in
  let derived = Proto.Ctx.derive ctx_rng pub sk in
  let start = Proto.S2_server.provision { Proto.Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
  let encs, key = Join.Join_scheme.encrypt_all ~s:4 data_rng pub [ m1; m2; m3 ] in
  let spec =
    Join.Sec_join.spec_of_token key ~ms:[ 2; 3; 2 ] ~chain:[ (0, 0); (1, 0) ] ~score_attrs:[ 1; 2; 1 ]
      ~k:5
  in
  let responders = ref [] and diffs = ref [] in
  let st =
    Proto.S2_server.mux_state ~make:(fun ~session:_ ->
        let s2 = start () in
        responders := s2 :: !responders;
        s2)
  in
  let rec record = function
    | Proto.Wire.Join_pick { diffs = d; _ } -> diffs := !diffs @ d
    | Proto.Wire.Batch reqs -> List.iter record reqs
    | _ -> ()
  in
  let backend ops =
    List.iter (function Proto.Wire.Mux_req { req; _ }, _ -> record req | _ -> ()) ops;
    Proto.S2_server.handle_mux_ops st ops
  in
  let sched = Proto.Sched.create ~window_us:0 ~backend () in
  let session = Proto.Sched.open_query sched in
  let mctx = Proto.Ctx.of_derived ~blind_bits:48 ~mode:(Proto.Ctx.Mux (sched, session)) derived in
  let top = Join.Sec_join.top_k_multi mctx encs spec in
  Proto.Sched.close_query sched session;
  Proto.Sched.stop sched;
  let verdicts =
    List.concat_map
      (fun s2 ->
        List.concat_map
          (function
            | Proto.Trace.Equality_bits { protocol = "SecJoin"; bits } -> List.filter Fun.id bits
            | _ -> [])
          (Proto.Trace.events (Proto.S2_server.trace s2)))
      !responders
  in
  let zeros = List.filter (fun c -> Nat.is_zero (Paillier.decrypt sk c)) !diffs in
  Alcotest.(check int) "one diff per combination" (2 * 3 * 3) (List.length !diffs);
  Alcotest.(check int) "true verdicts" (List.length (plain_3way ())) (List.length verdicts);
  Alcotest.(check int) "zero diffs = true verdicts" (List.length verdicts) (List.length zeros);
  Alcotest.(check (list int)) "answer = oracle" (plain_3way ())
    (List.map (fun (t : Join.Sec_join.joined) -> Nat.to_int (Paillier.decrypt sk t.Join.Sec_join.score)) top)

(* The binary and the rank join against the plaintext join oracle over
   small random relations: the top k scores, ties in any order. *)
let prop_join_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6 ~name:"binary and rank join = plaintext join oracle"
       QCheck.(quad (int_range 1 5) (int_range 1 5) (int_range 1 4) (int_bound 10_000))
       (fun (n1, n2, k, seed) ->
         let gen tag rows =
           Synthetic.generate ~seed:(string_of_int seed ^ tag) ~name:tag ~rows ~attrs:2
             (Synthetic.Uniform { lo = 0; hi = 3 })
         in
         let ra = gen "a" n1 and rb = gen "b" n2 in
         let expected =
           let acc = ref [] in
           Relation.fold_rows ra ~init:() ~f:(fun () _ r1 ->
               Relation.fold_rows rb ~init:() ~f:(fun () _ r2 ->
                   if r1.(0) = r2.(0) then acc := (r1.(1) + r2.(1)) :: !acc));
           List.filteri (fun i _ -> i < k) (List.sort (fun a b -> compare b a) !acc)
         in
         let scores = List.map (fun (t : Join.Sec_join.joined) -> dec t.Join.Sec_join.score) in
         let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 (Rng.fork rng ~label:"jp") pub ra rb in
         let (s1, s2), skey =
           Join.Join_scheme.encrypt_pair_sorted ~s:4 (Rng.fork rng ~label:"jps") pub ~score1:1
             ~score2:1 ra rb
         in
         scores (Join.Sec_join.top_k ctx e1 e2 (tk_of key k)) = expected
         && scores (Join.Sec_join.top_k_sorted ctx s1 s2 (tk_of skey k)) = expected))

let suite =
  [ ( "join-scheme",
      [ Alcotest.test_case "encrypt pair shape" `Quick test_encrypt_pair_shape;
        Alcotest.test_case "token" `Quick test_token_roundtrip
      ] );
    ( "sec-join",
      [ Alcotest.test_case "combine predicate" `Quick test_combine_predicate;
        Alcotest.test_case "filter drops non-matches" `Quick test_filter_drops_nonmatches;
        Alcotest.test_case "filter preserves attributes" `Quick test_filter_preserves_attrs;
        Alcotest.test_case "top-k join" `Quick test_top_k_join;
        Alcotest.test_case "matches plaintext oracle" `Quick test_top_k_join_oracle;
        Alcotest.test_case "empty result" `Quick test_join_empty_result;
        Alcotest.test_case "zero-score match survives" `Quick test_join_zero_score_survives;
        Alcotest.test_case "filter leaks only the count" `Quick test_filter_leaks_only_count
      ] );
    ( "rank-join",
      [ Alcotest.test_case "matches full join, halts early" `Quick test_sorted_join_matches_full;
        Alcotest.test_case "sparse match still found" `Quick test_sorted_join_no_early_halt_when_sparse;
        prop_sorted_join_oracle
      ] );
    ( "multi-way",
      [ Alcotest.test_case "3-way chain join" `Quick test_three_way_join;
        Alcotest.test_case "partial chain rejected" `Quick test_three_way_no_match;
        Alcotest.test_case "S2 sees one difference per combination" `Quick
          test_one_diff_per_combination
      ] );
    ( "join-pick",
      [ Alcotest.test_case "combine 1 round, top_k 3" `Quick test_rounds;
        Alcotest.test_case "a rank-join diagonal is 1 round" `Quick test_diagonal_round;
        Alcotest.test_case "no Damgard-Jurik operation" `Quick test_no_dj;
        Alcotest.test_case "same bytes at widths 1 and 2" `Quick test_widths;
        Alcotest.test_case "a short or long reply is a Proto_error" `Quick test_desync;
        prop_join_oracle
      ] )
  ]

let () = Alcotest.run "join" suite
