(* Tests for the two-cloud sub-protocols, each checked against a plaintext
   oracle: RecoverEnc, SecWorst, SecDedup/SecDupElim, SecUpdate,
   EncCompare, EncSort and SecRefresh. *)

open Bignum
open Crypto
open Proto

let rng = Rng.create ~seed:"test_proto"
let ctx = Ctx.create ~blind_bits:48 rng ~bits:128
let s1 = ctx.Ctx.s1
let pub = s1.Ctx.pub
let sk = Ctx.sk ctx
let keys = Prf.gen_keys rng 4

let enc i = Paillier.encrypt rng pub (Nat.of_int i)
let dec c = Nat.to_int (Paillier.decrypt sk c)
let dec_signed c = Bigint.to_string (Paillier.decrypt_signed sk c)

let entry oid score = { Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys oid; score = enc score }

let scored ?(seen = [| 1; 0 |]) oid worst best =
  {
    Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys oid;
    worst = enc worst;
    best = enc best;
    seen = Array.map enc seen;
  }

let opened (it : Enc_item.scored) =
  let resolver v =
    (* brute-force id recovery for test objects "o0".."o99" *)
    let rec find i =
      if i > 99 then None
      else if Nat.equal v (Prf.to_nat_mod ~key:(List.hd keys) ("o" ^ string_of_int i) ~m:pub.Paillier.n)
      then Some ("o" ^ string_of_int i)
      else find (i + 1)
    in
    find 0
  in
  let id = resolver (Paillier.decrypt sk (Ehl.Ehl_plus.cells it.Enc_item.ehl).(0)) in
  let signed c =
    let v = Paillier.decrypt_signed sk c in
    (match Nat.to_int_opt (Bigint.to_nat v) with
    | Some x -> if Bigint.sign v < 0 then -x else x
    | None -> min_int)
  in
  (id, signed it.Enc_item.worst, signed it.Enc_item.best)

(* ---------------- channel accounting ---------------- *)

let test_channel () =
  let ch = Channel.create () in
  Channel.send ch ~dir:Channel.S1_to_s2 ~label:"a" ~bytes:100;
  Channel.send ch ~dir:Channel.S2_to_s1 ~label:"b" ~bytes:50;
  Channel.round_trip ch;
  Alcotest.(check int) "bytes" 150 (Channel.bytes_total ch);
  Alcotest.(check int) "messages" 2 (Channel.messages_total ch);
  Alcotest.(check int) "rounds" 1 (Channel.rounds_total ch);
  Alcotest.(check (list (pair string int))) "labels" [ ("a", 100); ("b", 50) ]
    (Channel.bytes_by_label ch);
  let lat = Channel.latency_seconds ~rtt_ms:0. ~bandwidth_mbps:50. ch in
  Alcotest.(check bool) "latency = 8*150/50e6" true (abs_float (lat -. 2.4e-5) < 1e-9);
  Channel.reset ch;
  Alcotest.(check int) "reset" 0 (Channel.bytes_total ch)

(* ---------------- recover_enc + select ---------------- *)

let test_recover_enc () =
  let inner = enc 12345 in
  let e2 = Damgard_jurik.encrypt_layered rng s1.Ctx.djpub inner in
  let recovered = Gadgets.recover_enc ctx ~protocol:"test" e2 in
  Alcotest.(check int) "roundtrip" 12345 (dec recovered);
  Alcotest.(check bool) "fresh ciphertext" false (Paillier.equal_ct inner recovered)

let test_select_recover () =
  let a = enc 111 and b = enc 222 in
  let t1 = Damgard_jurik.encrypt rng s1.Ctx.djpub Nat.one in
  let t0 = Damgard_jurik.encrypt rng s1.Ctx.djpub Nat.zero in
  Alcotest.(check int) "select one" 111
    (dec (Gadgets.select_recover ctx ~protocol:"test" ~t:t1 ~if_one:a ~if_zero:b));
  Alcotest.(check int) "select zero" 222
    (dec (Gadgets.select_recover ctx ~protocol:"test" ~t:t0 ~if_one:a ~if_zero:b))

let test_lift () =
  let cts = [ enc 0; enc 1; enc 42 ] in
  let lifted = List.concat (Gadgets.lift_many ctx ~protocol:"test" [ cts ]) in
  (* check through the select gadget: lifted bits drive correct selection *)
  List.iter2
    (fun l orig ->
      let v = dec orig in
      if v = 0 || v = 1 then begin
        let r =
          Gadgets.select_recover ctx ~protocol:"test" ~t:l ~if_one:(enc 7) ~if_zero:(enc 9)
        in
        Alcotest.(check int) "lifted bit selects" (if v = 1 then 7 else 9) (dec r)
      end)
    lifted cts

let test_conjunction_round () =
  let zero () = Paillier.encrypt rng pub Nat.zero in
  let nonzero () = enc 5 in
  let groups = [ [ zero (); zero () ]; [ zero (); nonzero () ]; [ nonzero () ]; [ zero () ] ] in
  let ts = Gadgets.conjunction_round ctx ~protocol:"test" groups in
  let selected =
    List.map
      (fun t -> dec (Gadgets.select_recover ctx ~protocol:"test" ~t ~if_one:(enc 1) ~if_zero:(enc 0)))
      ts
  in
  Alcotest.(check (list int)) "conjunction verdicts" [ 1; 0; 0; 1 ] selected

(* ---------------- SecWorst ---------------- *)

let test_sec_worst_no_match () =
  (* paper Example 8.1: X1 at depth 1 with R2=(X2,8), R3=(X4,8): worst = 10 *)
  let target = entry "o1" 10 in
  let others = [ entry "o2" 8; entry "o4" 8 ] in
  Alcotest.(check int) "Enc(10)" 10 (dec (fst (Sec_worst.run ctx ~target ~others)))

let test_sec_worst_matches () =
  let target = entry "o7" 5 in
  let others = [ entry "o7" 3; entry "o9" 100; entry "o7" 2 ] in
  Alcotest.(check int) "sums matching scores" 10 (dec (fst (Sec_worst.run ctx ~target ~others)))

let test_sec_worst_empty_others () =
  let target = entry "o7" 42 in
  Alcotest.(check int) "own score only" 42 (dec (fst (Sec_worst.run ctx ~target ~others:[])))

(* ---------------- SecDedup ---------------- *)

let test_sec_dedup_replace () =
  let items = [ scored "o1" 10 20; scored "o2" 8 20; scored "o1" 10 20; scored "o3" 5 20 ] in
  let out = Sec_dedup.run ctx ~mode:Sec_dedup.Replace items in
  Alcotest.(check int) "same length" 4 (List.length out);
  let openings = List.map opened out in
  let reals = List.filter_map (fun (id, w, b) -> Option.map (fun i -> (i, w, b)) id) openings in
  let garbage = List.filter (fun (id, _, _) -> id = None) openings in
  Alcotest.(check int) "three real objects" 3 (List.length reals);
  Alcotest.(check int) "one sentinel" 1 (List.length garbage);
  List.iter
    (fun (_, w, b) ->
      Alcotest.(check int) "sentinel worst = -1" (-1) w;
      Alcotest.(check int) "sentinel best = -1" (-1) b)
    garbage;
  Alcotest.(check bool) "kept scores intact" true
    (List.sort compare reals = [ ("o1", 10, 20); ("o2", 8, 20); ("o3", 5, 20) ])

let test_sec_dedup_eliminate () =
  let items = [ scored "o1" 10 20; scored "o2" 8 20; scored "o1" 10 20; scored "o1" 10 20 ] in
  let out = Sec_dedup.run ctx ~mode:Sec_dedup.Eliminate items in
  Alcotest.(check int) "shrunk to distinct" 2 (List.length out);
  let reals = List.map opened out |> List.filter_map (fun (id, w, _) -> Option.map (fun i -> (i, w)) id) in
  Alcotest.(check bool) "distinct objects kept" true
    (List.sort compare reals = [ ("o1", 10); ("o2", 8) ])

let test_sec_dedup_no_dupes () =
  let items = [ scored "o1" 1 2; scored "o2" 3 4 ] in
  let out = Sec_dedup.run ctx ~mode:Sec_dedup.Replace items in
  let reals = List.map opened out |> List.filter_map (fun (id, w, b) -> Option.map (fun i -> (i, w, b)) id) in
  Alcotest.(check bool) "all kept" true (List.sort compare reals = [ ("o1", 1, 2); ("o2", 3, 4) ])

let test_sec_dedup_empty () =
  Alcotest.(check int) "empty ok" 0 (List.length (Sec_dedup.run ctx ~mode:Sec_dedup.Replace []))

(* ---------------- SecUpdate ---------------- *)

(* SecUpdate merges worst scores and seen vectors; best scores are left
   to the SecRefresh that precedes every read *)
let merged out =
  List.filter_map
    (fun (it : Enc_item.scored) ->
      let id, w, _ = opened it in
      Option.map (fun i -> (i, w, Array.to_list (Array.map dec it.Enc_item.seen))) id)
    out
  |> List.sort compare

let merged_t = Alcotest.(list (triple string int (list int)))

let test_sec_update_match () =
  (* T = [(o1,W=10,seen [1;0])], gamma = [(o1,w=6,seen [0;1])]:
     o1's worst 10+6=16, seen in both lists; appended copy neutralized *)
  let t_list = [ scored "o1" 10 26 ] in
  let gamma = [ scored ~seen:[| 0; 1 |] "o1" 6 22 ] in
  let out = Sec_update.run ctx ~mode:Sec_dedup.Replace ~t_list ~gamma in
  Alcotest.(check int) "replace keeps length" 2 (List.length out);
  Alcotest.check merged_t "merged" [ ("o1", 16, [ 1; 1 ]) ] (merged out)

let test_sec_update_no_match () =
  let t_list = [ scored "o1" 10 26 ] in
  let gamma = [ scored ~seen:[| 0; 1 |] "o2" 6 22 ] in
  let out = Sec_update.run ctx ~mode:Sec_dedup.Eliminate ~t_list ~gamma in
  Alcotest.check merged_t "both present, untouched"
    [ ("o1", 10, [ 1; 0 ]); ("o2", 6, [ 0; 1 ]) ]
    (merged out)

let test_sec_update_eliminate_match () =
  let t_list = [ scored "o1" 10 26; scored "o2" 9 20 ] in
  let gamma = [ scored ~seen:[| 0; 1 |] "o2" 4 18; scored "o3" 3 17 ] in
  let out = Sec_update.run ctx ~mode:Sec_dedup.Eliminate ~t_list ~gamma in
  Alcotest.(check int) "3 distinct" 3 (List.length out);
  Alcotest.check merged_t "o2 merged"
    [ ("o1", 10, [ 1; 0 ]); ("o2", 13, [ 1; 1 ]); ("o3", 3, [ 1; 0 ]) ]
    (merged out)

let test_sec_update_replace_breaks_link () =
  (* the replaced appended copy must no longer equal the kept entry *)
  let t_list = [ scored "o1" 10 26 ] in
  let gamma = [ scored "o1" 6 22 ] in
  let out = Sec_update.run ctx ~mode:Sec_dedup.Replace ~t_list ~gamma in
  match List.map opened out with
  | [ _; _ ] ->
    let sentinels = List.filter (fun (id, _, _) -> id = None) (List.map opened out) in
    Alcotest.(check int) "one sentinel" 1 (List.length sentinels)
  | _ -> Alcotest.fail "expected two items"

let test_sec_update_columns_unlinkable () =
  (* SecQuery feeds T back into SecUpdate depth after depth, and S2
     decrypts the |gamma| x |T| grid column by column. Matching the same
     object at every step must not land in the same column every time,
     or S2 could link the matches across depths. *)
  let t_list = ref (List.init 6 (fun i -> scored ("o" ^ string_of_int i) 1 1)) in
  let steps = 8 in
  let columns =
    List.init steps (fun _ ->
        let before = Trace.length (Ctx.trace ctx) in
        t_list :=
          Sec_update.run ctx ~mode:Sec_dedup.Eliminate ~t_list:!t_list
            ~gamma:[ scored ~seen:[| 0; 1 |] "o0" 1 1 ];
        let grid =
          List.filteri (fun i _ -> i >= before) (Trace.events (Ctx.trace ctx))
          |> List.find_map (function
               | Trace.Equality_bits { protocol = "SecUpdate"; bits } -> Some bits
               | _ -> None)
        in
        match grid with
        | Some bits ->
          Alcotest.(check int) "one 1 x |T| grid" 6 (List.length bits);
          fst (List.find (fun (_, b) -> b) (List.mapi (fun j b -> (j, b)) bits))
        | None -> Alcotest.fail "no SecUpdate equality event")
  in
  Alcotest.(check int) "T stays duplicate-free" 6 (List.length !t_list);
  let o0_worst =
    List.find_map (fun it -> match opened it with Some "o0", w, _ -> Some w | _ -> None) !t_list
  in
  Alcotest.(check (option int)) "every match merged" (Some (1 + steps)) o0_worst;
  Alcotest.(check bool) "match column varies across steps" true
    (List.length (List.sort_uniq compare columns) > 1)

(* ---------------- EncCompare ---------------- *)

let test_enc_compare () =
  Alcotest.(check bool) "3 <= 5" true (Enc_compare.leq ctx (enc 3) (enc 5));
  Alcotest.(check bool) "5 <= 3 is false" false (Enc_compare.leq ctx (enc 5) (enc 3));
  Alcotest.(check bool) "4 <= 4" true (Enc_compare.leq ctx (enc 4) (enc 4));
  (* signed sentinel: Z = -1 compares below 0 *)
  let z = Paillier.encrypt rng pub (Ctx.sentinel_z s1) in
  Alcotest.(check bool) "-1 <= 0" true (Enc_compare.leq ctx z (enc 0));
  Alcotest.(check bool) "0 <= -1 is false" false (Enc_compare.leq ctx (enc 0) z)

let test_enc_compare_dgk_known () =
  let check a b =
    Alcotest.(check bool)
      (Printf.sprintf "dgk %d <= %d" a b)
      (a <= b)
      (Enc_compare.leq_dgk ctx ~bits:16 (enc a) (enc b))
  in
  check 3 5;
  check 5 3;
  check 4 4;
  check 0 0;
  check 0 65535;
  check 65535 0;
  check 65535 65535

let prop_enc_compare_dgk =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"DGK comparison matches plaintext order"
       QCheck.(pair (int_bound 65535) (int_bound 65535))
       (fun (a, b) -> Enc_compare.leq_dgk ctx ~bits:16 (enc a) (enc b) = (a <= b)))

let prop_enc_compare =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"EncCompare matches plaintext order"
       QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
       (fun (a, b) -> Enc_compare.leq ctx (enc a) (enc b) = (a <= b)))

(* ---------------- EncSort ---------------- *)

let sort_test strategy () =
  let items =
    [ scored "o1" 10 26; scored "o2" 16 22; scored "o3" 13 21; scored "o4" 8 23; scored "o5" 1 9 ]
  in
  let out = Enc_sort.sort ctx ~strategy items in
  let worsts = List.map (fun it -> dec it.Enc_item.worst) out in
  Alcotest.(check (list int)) "descending by worst" [ 16; 13; 10; 8; 1 ] worsts;
  (* payloads stay attached to their keys *)
  let reals = List.map opened out |> List.filter_map (fun (id, w, b) -> Option.map (fun i -> (i, w, b)) id) in
  Alcotest.(check bool) "pairs intact" true
    (List.mem ("o2", 16, 22) reals && List.mem ("o5", 1, 9) reals)

let test_sort_sentinels_sink strategy () =
  let z = Ctx.sentinel_z s1 in
  let sentinel =
    {
      Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys "garbage";
      worst = Paillier.encrypt rng pub z;
      best = Paillier.encrypt rng pub z;
      seen = [| enc 1; enc 1 |];
    }
  in
  let items = [ sentinel; scored "o1" 0 5; scored "o2" 7 9 ] in
  let out = Enc_sort.sort ctx ~strategy items in
  let worsts = List.map (fun it -> dec_signed it.Enc_item.worst) out in
  Alcotest.(check (list string)) "sentinel last" [ "7"; "0"; "-1" ] worsts

let prop_enc_sort =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"EncSort = plaintext sort (both strategies)"
       QCheck.(pair (list_of_size (Gen.int_range 0 8) (int_bound 1000)) bool)
       (fun (scores, use_network) ->
         let items = List.mapi (fun i v -> scored ("o" ^ string_of_int i) v (v + 1)) scores in
         let strategy = if use_network then Enc_sort.Network else Enc_sort.Blinded in
         let out = Enc_sort.sort ctx ~strategy items in
         List.map (fun it -> dec it.Enc_item.worst) out
         = List.sort (fun a b -> compare b a) scores))

let test_sort_empty_single () =
  Alcotest.(check int) "empty" 0 (List.length (Enc_sort.sort ctx ~strategy:Enc_sort.Network []));
  let one = [ scored "o1" 5 6 ] in
  Alcotest.(check int) "single" 1 (List.length (Enc_sort.sort ctx ~strategy:Enc_sort.Network one))

(* ---------------- SecRefresh ---------------- *)

let test_sec_refresh () =
  (* item seen in list 0 only (seen = [1; 0]); W = 12, bottoms = [9; 4]:
     refreshed B = 12 + 4 (only the unseen list's bottom) *)
  let it = scored ~seen:[| 1; 0 |] "o1" 12 999 in
  let out = Sec_refresh.run ctx ~items:[ it ] ~bottoms:[| enc 9; enc 4 |] in
  Alcotest.(check int) "B = W + unseen bottoms" 16 (dec (List.hd out).Enc_item.best)

let test_sec_refresh_all_seen () =
  let it = scored ~seen:[| 1; 1 |] "o1" 20 999 in
  let out = Sec_refresh.run ctx ~items:[ it ] ~bottoms:[| enc 9; enc 4 |] in
  Alcotest.(check int) "B = W exactly" 20 (dec (List.hd out).Enc_item.best)

let test_sec_refresh_sentinel () =
  (* sentinel: W = -1 with all-ones seen stays at -1 *)
  let z = Ctx.sentinel_z s1 in
  let it =
    {
      Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys "g";
      worst = Paillier.encrypt rng pub z;
      best = Paillier.encrypt rng pub z;
      seen = [| enc 1; enc 1 |];
    }
  in
  let out = Sec_refresh.run ctx ~items:[ it ] ~bottoms:[| enc 9; enc 4 |] in
  Alcotest.(check string) "sentinel stays -1" "-1" (dec_signed (List.hd out).Enc_item.best)

let test_sec_refresh_example_8_2 () =
  (* paper Example 8.2 (Figure 3b): best for X4 at depth 2 is 23 — its
     own 8 (seen in R3 only) + R1 bottom 8 + R2 bottom 7 *)
  let it = scored ~seen:[| 0; 0; 1 |] "o4" 8 999 in
  let out = Sec_refresh.run ctx ~items:[ it ] ~bottoms:[| enc 8; enc 7; enc 3 |] in
  Alcotest.(check int) "Fig 3b upper bound for X4" 23 (dec (List.hd out).Enc_item.best)

(* ---------------- per-shard blocks ---------------- *)

(* Each phase's run_many over several blocks (one per shard) costs the
   rounds of one block, and every block decrypts to what a run of its own
   gives: the same objects, worst, best and seen values, and the same
   survivors. An empty block (or an empty side) passes through. *)

let rounds_of f =
  let before = Channel.rounds_total (Ctx.channel ctx) in
  let out = f () in
  (out, Channel.rounds_total (Ctx.channel ctx) - before)

let contents items =
  List.map
    (fun (it : Enc_item.scored) ->
      let id, w, b = opened it in
      let seen = Array.to_list (Array.map (fun c -> string_of_int (dec c)) it.Enc_item.seen) in
      Printf.sprintf "%s worst %d best %d seen [%s]" (Option.value id ~default:"sentinel") w b
        (String.concat ";" seen))
    items
  |> List.sort compare

let blocks_t = Alcotest.(list (list string))

let test_dedup_many () =
  List.iter
    (fun (mode, mname) ->
      let b1 = [ scored "o1" 10 20; scored "o2" 8 20; scored "o1" 10 20; scored "o3" 5 20 ] in
      let b2 = [ scored "o4" 7 9; scored "o5" 2 3; scored "o4" 7 9 ] in
      let outs, rounds = rounds_of (fun () -> Sec_dedup.run_many ctx ~mode [ b1; []; b2 ]) in
      Alcotest.(check int) (mname ^ ": one round") 1 rounds;
      Alcotest.check blocks_t (mname ^ ": as single-block runs")
        [ contents (Sec_dedup.run ctx ~mode b1); []; contents (Sec_dedup.run ctx ~mode b2) ]
        (List.map contents outs))
    [ (Sec_dedup.Replace, "replace"); (Sec_dedup.Eliminate, "eliminate") ]

let test_update_many () =
  List.iter
    (fun (mode, mname) ->
      let t1 = [ scored "o1" 10 26; scored "o2" 9 20 ] in
      let g1 = [ scored ~seen:[| 0; 1 |] "o2" 4 18; scored "o3" 3 17 ] in
      let t2 = [ scored "o4" 5 10 ] in
      let g2 = [ scored ~seen:[| 0; 1 |] "o4" 6 22; scored ~seen:[| 0; 1 |] "o5" 1 2 ] in
      let g3 = [ scored "o6" 1 2 ] in
      let outs, rounds =
        rounds_of (fun () -> Sec_update.run_many ctx ~mode [ (t1, g1); ([], g3); (t2, g2) ])
      in
      Alcotest.(check int) (mname ^ ": three rounds") 3 rounds;
      Alcotest.(check bool) (mname ^ ": empty T passes gamma through") true (List.nth outs 1 == g3);
      Alcotest.check blocks_t (mname ^ ": as single-block runs")
        [ contents (Sec_update.run ctx ~mode ~t_list:t1 ~gamma:g1);
          contents g3;
          contents (Sec_update.run ctx ~mode ~t_list:t2 ~gamma:g2) ]
        (List.map contents outs))
    [ (Sec_dedup.Replace, "replace"); (Sec_dedup.Eliminate, "eliminate") ]

let test_refresh_many () =
  let items1 = [ scored ~seen:[| 1; 0 |] "o1" 12 999; scored ~seen:[| 0; 0 |] "o2" 3 999 ] in
  let bottoms1 = [| enc 9; enc 4 |] in
  let items2 = [ scored ~seen:[| 0; 1 |] "o3" 5 999 ] in
  let bottoms2 = [| enc 7; enc 2 |] in
  let outs, rounds =
    rounds_of (fun () ->
        Sec_refresh.run_many ctx [ (items1, bottoms1); ([], bottoms1); (items2, bottoms2) ])
  in
  Alcotest.(check int) "two rounds" 2 rounds;
  Alcotest.check blocks_t "as single-block runs"
    [ contents (Sec_refresh.run ctx ~items:items1 ~bottoms:bottoms1);
      [];
      contents (Sec_refresh.run ctx ~items:items2 ~bottoms:bottoms2) ]
    (List.map contents outs);
  Alcotest.check blocks_t "B = W + unseen bottoms"
    [ [ "o1 worst 12 best 16 seen [1;0]"; "o2 worst 3 best 16 seen [0;0]" ];
      [];
      [ "o3 worst 5 best 12 seen [0;1]" ] ]
    (List.map contents outs)

(* ---------------- latency model ---------------- *)

let test_latency_model () =
  let ch = Channel.create () in
  Channel.send ch ~dir:Channel.S1_to_s2 ~label:"x" ~bytes:6_250_000 (* 50 Mbit *);
  Alcotest.(check bool) "1 second at 50 Mbps" true
    (abs_float (Channel.latency_seconds ~rtt_ms:0. ~bandwidth_mbps:50. ch -. 1.0) < 1e-9);
  Channel.round_trip ch;
  Channel.round_trip ch;
  Alcotest.(check bool) "rtt adds up" true
    (abs_float (Channel.latency_seconds ~rtt_ms:10. ~bandwidth_mbps:50. ch -. 1.02) < 1e-9);
  let snap = Channel.snapshot ch in
  Channel.send ch ~dir:Channel.S2_to_s1 ~label:"y" ~bytes:100;
  let d = Channel.diff snap (Channel.snapshot ch) in
  Alcotest.(check int) "diff isolates the new bytes" 100 d.Channel.bytes

(* ---------------- trace ---------------- *)

let test_trace_records () =
  let before = Trace.length (Ctx.trace ctx) in
  ignore (Enc_compare.leq ctx (enc 1) (enc 2));
  Alcotest.(check int) "one event recorded" (before + 1) (Trace.length (Ctx.trace ctx))

let suite =
  [ ("channel", [ Alcotest.test_case "accounting" `Quick test_channel ]);
    ( "gadgets",
      [ Alcotest.test_case "recover_enc" `Quick test_recover_enc;
        Alcotest.test_case "select_recover" `Quick test_select_recover
      ] );
    ( "gadgets-extra",
      [ Alcotest.test_case "lift Paillier -> DJ" `Quick test_lift;
        Alcotest.test_case "conjunction round" `Quick test_conjunction_round
      ] );
    ( "sec-worst",
      [ Alcotest.test_case "paper Example 8.1" `Quick test_sec_worst_no_match;
        Alcotest.test_case "sums matches" `Quick test_sec_worst_matches;
        Alcotest.test_case "no others" `Quick test_sec_worst_empty_others
      ] );
    ( "sec-dedup",
      [ Alcotest.test_case "replace mode" `Quick test_sec_dedup_replace;
        Alcotest.test_case "eliminate mode" `Quick test_sec_dedup_eliminate;
        Alcotest.test_case "no duplicates" `Quick test_sec_dedup_no_dupes;
        Alcotest.test_case "empty" `Quick test_sec_dedup_empty
      ] );
    ( "sec-update",
      [ Alcotest.test_case "match merges scores" `Quick test_sec_update_match;
        Alcotest.test_case "no match appends" `Quick test_sec_update_no_match;
        Alcotest.test_case "eliminate drops copy" `Quick test_sec_update_eliminate_match;
        Alcotest.test_case "replace neutralizes copy" `Quick test_sec_update_replace_breaks_link;
        Alcotest.test_case "T columns re-permuted per call" `Quick
          test_sec_update_columns_unlinkable
      ] );
    ( "enc-compare",
      [ Alcotest.test_case "known orders + sentinel" `Quick test_enc_compare;
        Alcotest.test_case "DGK known orders" `Quick test_enc_compare_dgk_known;
        prop_enc_compare;
        prop_enc_compare_dgk
      ] );
    ( "enc-sort",
      [ Alcotest.test_case "blinded strategy" `Quick (sort_test Enc_sort.Blinded);
        Alcotest.test_case "network strategy" `Quick (sort_test Enc_sort.Network);
        Alcotest.test_case "sentinels sink (blinded)" `Quick (test_sort_sentinels_sink Enc_sort.Blinded);
        Alcotest.test_case "sentinels sink (network)" `Quick (test_sort_sentinels_sink Enc_sort.Network);
        Alcotest.test_case "empty and single" `Quick test_sort_empty_single;
        prop_enc_sort
      ] );
    ( "sec-refresh",
      [ Alcotest.test_case "adds unseen bottoms" `Quick test_sec_refresh;
        Alcotest.test_case "all seen -> B = W" `Quick test_sec_refresh_all_seen;
        Alcotest.test_case "sentinel stays -1" `Quick test_sec_refresh_sentinel;
        Alcotest.test_case "paper Example 8.2" `Quick test_sec_refresh_example_8_2
      ] );
    ( "blocks",
      [ Alcotest.test_case "sec-dedup run_many: one round" `Quick test_dedup_many;
        Alcotest.test_case "sec-update run_many: three rounds" `Quick test_update_many;
        Alcotest.test_case "sec-refresh run_many: two rounds" `Quick test_refresh_many
      ] );
    ("latency", [ Alcotest.test_case "50 Mbps link model" `Quick test_latency_model ]);
    ("trace", [ Alcotest.test_case "records events" `Quick test_trace_records ])
  ]

let () = Alcotest.run "proto" suite
