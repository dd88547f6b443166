(* Tests for the two-cloud sub-protocols, each checked against a plaintext
   oracle: SecWorst, SecDedup/SecDupElim, SecUpdate, EncCompare, EncSort,
   SecRefresh, and S2's side of SecJoin's join pick. *)

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

(* ---------------- join pick (S2's side) ---------------- *)

let nat_of = Paillier.to_nat

(* An S2 responder under the test's keys, outside any transport, for
   feeding it requests directly. *)
let standalone_s2 () =
  S2_server.create ~pub ~sk ~own_pub:s1.Ctx.own_pub ~rng:(Rng.create ~seed:"test_proto s2")

let join_pick s2 diffs fields =
  match S2_server.handle s2 ~label:"SecJoin" (Wire.Join_pick { diffs; fields }) with
  | Wire.Cts cts -> cts
  | _ -> Alcotest.fail "a join pick answers Cts"

(* A combination's verdict, the conjunction of its conditions, holds
   when its one diff decrypts to zero; S2 answers Enc(t), then
   Enc(t * u) per field, and records the verdicts as one event. *)
let test_join_pick_verdicts () =
  let s2 = standalone_s2 () in
  let diffs = [ enc 0; enc 5; enc 7; enc 0 ] in
  let fields = List.map (fun v -> [ enc v; enc (v + 1) ]) [ 10; 20; 30; 40 ] in
  Alcotest.(check (list int)) "Enc(t), then Enc(t * u) per field"
    [ 1; 10; 11; 0; 0; 0; 0; 0; 0; 1; 40; 41 ]
    (List.map dec (join_pick s2 diffs fields));
  Alcotest.(check bool) "one event with the verdicts" true
    (Trace.events (S2_server.trace s2)
    = [ Trace.Equality_bits { protocol = "SecJoin"; bits = [ true; false; false; true ] } ])

(* Every answer is a fresh encryption, even of a value S2 was sent. *)
let test_join_pick_fresh () =
  let s2 = standalone_s2 () in
  let x = enc 12345 in
  let reply = join_pick s2 [ enc 0 ] [ [ x; x ] ] in
  Alcotest.(check (list int)) "t, then x twice" [ 1; 12345; 12345 ] (List.map dec reply);
  let nats = List.map (fun c -> Nat.to_string (nat_of c)) (x :: reply) in
  Alcotest.(check int) "no ciphertext repeats" 4 (List.length (List.sort_uniq compare nats))

(* A non-unit (here p, which no encryption can be) makes S2's handler
   raise a named error instead of answering a wrong ciphertext;
   serve-s2 closes such a connection, and S1 sees a typed error. *)
let test_join_pick_non_unit () =
  let p, _, _ = Paillier.secret_params sk in
  Alcotest.check_raises "named error"
    (Invalid_argument "Paillier.decrypt: ciphertext is not a unit") (fun () ->
      ignore (join_pick (standalone_s2 ()) [ enc 0 ] [ [ Paillier.of_nat pub p ] ]))

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
  (* a new candidate's best score is its worst until SecRefresh runs *)
  Alcotest.(check bool) "kept scores intact, best = worst" true
    (List.sort compare reals = [ ("o1", 10, 10); ("o2", 8, 8); ("o3", 5, 5) ])

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
  Alcotest.(check bool) "all kept, best = worst" true
    (List.sort compare reals = [ ("o1", 1, 1); ("o2", 3, 3) ])

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

(* One block of t items over m lists: one round, two messages, m + t*m
   Paillier decryptions (all S2's) and no Damgård–Jurik operation. *)
let test_sec_refresh_counts () =
  let t = 3 and m = 2 in
  let items = List.init t (fun i -> scored ~seen:[| i mod 2; 0 |] ("o" ^ string_of_int i) i 0) in
  let bottoms = [| enc 9; enc 4 |] in
  let col = Obs.Collector.create () in
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled prev)
    (fun () -> Obs.with_collector col (fun () -> ignore (Sec_refresh.run ctx ~items ~bottoms)));
  let got = Obs.Metrics.get (Obs.Collector.metrics col) in
  Alcotest.(check int) "rounds" 1 (got Obs.Metrics.Rounds);
  Alcotest.(check int) "messages" 2 (got Obs.Metrics.Msgs);
  Alcotest.(check int) "Paillier decryptions" (m + (t * m)) (got Obs.Metrics.Paillier_dec);
  List.iter
    (fun op -> Alcotest.(check int) (Obs.Metrics.name op) 0 (got op))
    Obs.Metrics.[ Dj_enc; Dj_dec; Dj_mul; Dj_rerand ]

(* B = W + sum of the bottoms of the unseen lists, for random seen bits,
   1-6 items over 1-4 lists, at widths 1 and 2; a sentinel (W = -1, all
   seen) stays at -1. *)
let prop_sec_refresh =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun m ->
      pair
        (list_size (int_range 1 6)
           (pair (opt (int_bound 100)) (array_size (return m) bool)))
        (array_size (return m) (int_bound 50)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"sec-refresh: B = W + unseen bottoms (widths 1, 2)"
       (QCheck.make gen)
       (fun (rows, bottoms) ->
         let m = Array.length bottoms in
         let items =
           List.mapi
             (fun i (w, seen) ->
               match w with
               | Some w ->
                 scored ~seen:(Array.map Bool.to_int seen) ("o" ^ string_of_int i) w 0
               | None ->
                 {
                   Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys "g";
                   worst = Paillier.encrypt rng pub (Ctx.sentinel_z s1);
                   best = enc 0;
                   seen = Array.init m (fun _ -> enc 1);
                 })
             rows
         in
         let want =
           List.map
             (fun (w, seen) ->
               match w with
               | Some w ->
                 string_of_int
                   (Array.fold_left ( + ) w
                      (Array.mapi (fun l b -> if seen.(l) then 0 else b) bottoms))
               | None -> "-1")
             rows
         in
         List.for_all
           (fun domains ->
             let out =
               Sec_refresh.run { ctx with Ctx.domains } ~items ~bottoms:(Array.map enc bottoms)
             in
             List.map (fun (it : Enc_item.scored) -> dec_signed it.best) out = want)
           [ 1; 2 ]))

(* S2 refuses a bit that decrypts outside {0, 1} and a block whose bit
   count is not a multiple of its list count, as Dedup refuses a wrong
   pair count. *)
let test_sec_refresh_refusals () =
  let s2 = standalone_s2 () in
  let refresh bottoms bits =
    S2_server.handle s2 ~label:"SecRefresh" (Wire.Refresh { bottoms; bits })
  in
  Alcotest.check_raises "a non-bit" (Invalid_argument "S2_server: refresh bit is not a bit")
    (fun () -> ignore (refresh [ enc 5 ] [ enc 1; enc 2 ]));
  Alcotest.check_raises "a ragged block" (Invalid_argument "S2_server: ragged refresh block")
    (fun () -> ignore (refresh [ enc 5; enc 6 ] [ enc 1; enc 0; enc 1 ]));
  Alcotest.check_raises "no lists" (Invalid_argument "S2_server: ragged refresh block")
    (fun () -> ignore (refresh [] []))

(* S1 raises a typed Proto_error when S2 answers a Refresh with the wrong
   number of ciphertexts (the rpc_batch desync pattern). *)
let test_sec_refresh_desync () =
  let backend ops =
    List.map
      (fun (op, _) ->
        match op with
        | Wire.Mux_req { req = Wire.Refresh _; _ } -> Wire.Mux_answer (Wire.Cts [ enc 1 ])
        | Wire.Mux_req _ -> Wire.Mux_answer (Wire.Bit true)
        | _ -> Wire.Mux_ok)
      ops
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let session = Sched.open_query sched in
  let pub, sk, ctx_rng, _ =
    Ctx.provision ~seed:"test_proto desync" ~key_bits:128 ~rand_bits:96 ()
  in
  let mctx = Ctx.of_keys ~blind_bits:48 ~mode:(Ctx.Mux (sched, session)) ctx_rng pub sk in
  let enc v = Paillier.encrypt rng pub (Nat.of_int v) in
  let it =
    { Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys "o1"; worst = enc 3; best = enc 0;
      seen = [| enc 1; enc 0 |] }
  in
  Alcotest.(check bool) "Proto_error on a short Cts" true
    (try
       ignore (Sec_refresh.run mctx ~items:[ it ] ~bottoms:[| enc 9; enc 4 |]);
       false
     with Proto_error.Proto_error _ -> true);
  Sched.close_query sched session;
  Sched.stop sched

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
      Alcotest.(check int) (mname ^ ": one round") 1 rounds;
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
  Alcotest.(check int) "one round" 1 rounds;
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

(* ---------------- picks ---------------- *)

(* SecWorst, SecDedup and SecUpdate pick in one Paillier round each,
   with no Damgård–Jurik operation on either side. *)
let test_pick_counts () =
  let counted f =
    let col = Obs.Collector.create () in
    let prev = Obs.is_enabled () in
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled prev) (fun () -> Obs.with_collector col f);
    Obs.Metrics.get (Obs.Collector.metrics col)
  in
  let row = [| entry "o1" 10; entry "o2" 8; entry "o1" 6 |] in
  let worst () =
    ignore
      (Sec_worst.run_many ctx
         (List.init 3 (fun i -> (row.(i), List.filteri (fun l _ -> l <> i) (Array.to_list row)))))
  in
  let items () = [ scored "o1" 10 20; scored "o2" 8 20; scored "o1" 10 20 ] in
  let update mode () =
    ignore
      (Sec_update.run ctx ~mode ~t_list:[ scored "o1" 10 26; scored "o2" 9 20 ]
         ~gamma:[ scored ~seen:[| 0; 1 |] "o2" 4 18; scored "o3" 3 17 ])
  in
  List.iter
    (fun (name, f) ->
      let got = counted f in
      Alcotest.(check int) (name ^ ": rounds") 1 (got Obs.Metrics.Rounds);
      Alcotest.(check int) (name ^ ": messages") 2 (got Obs.Metrics.Msgs);
      List.iter
        (fun op -> Alcotest.(check int) (name ^ ": " ^ Obs.Metrics.name op) 0 (got op))
        Obs.Metrics.[ Dj_enc; Dj_dec; Dj_mul; Dj_rerand ])
    [ ("SecWorst, three instances", worst);
      ("SecDedup replace", fun () -> ignore (Sec_dedup.run ctx ~mode:Sec_dedup.Replace (items ())));
      ("SecDedup eliminate", fun () -> ignore (Sec_dedup.run ctx ~mode:Sec_dedup.Eliminate (items ())));
      ("SecUpdate replace", update Sec_dedup.Replace);
      ("SecUpdate eliminate", update Sec_dedup.Eliminate) ]

(* what a candidate decrypts to: its object (None for garbage), signed
   worst and seen slots *)
let view (it : Enc_item.scored) =
  let id, w, _ = opened it in
  (id, w, Array.to_list (Array.map dec it.Enc_item.seen))

let oid i = "o" ^ string_of_int i
let widths = [ 1; 2 ]
let garbage m = (None, -1, List.init m (fun _ -> 1))

(* keep the first of every id *)
let distinct key l =
  List.rev
    (List.fold_left (fun acc x -> if List.exists (fun y -> key y = key x) acc then acc else x :: acc) [] l)

(* SecWorst against plaintext: worst = x + the scores of the others that
   encode the target's object, and the indicators in the others' order. *)
let prop_sec_worst =
  let gen =
    QCheck.Gen.(
      pair (pair (int_bound 3) (int_bound 50)) (list_size (int_range 0 4) (pair (int_bound 3) (int_bound 50))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"sec-worst pick = plaintext (widths 1, 2)" (QCheck.make gen)
       (fun ((tid, tx), others) ->
         let target = entry (oid tid) tx in
         let os = List.map (fun (id, x) -> entry (oid id) x) others in
         let want_worst =
           List.fold_left (fun acc (id, x) -> if id = tid then acc + x else acc) tx others
         in
         let want_seen = List.map (fun (id, _) -> Bool.to_int (id = tid)) others in
         List.for_all
           (fun domains ->
             let worst, ts = Sec_worst.run { ctx with Ctx.domains } ~target ~others:os in
             dec worst = want_worst && List.map dec ts = want_seen)
           widths))

(* SecDedup against plaintext, duplicates agreeing on their values:
   Replace keeps one copy of every object and turns the others into
   garbage (worst -1, seen all ones), Eliminate drops them. *)
let prop_sec_dedup =
  let value id = ((10 * id) + 1, [| id mod 2; 1 - (id mod 2) |]) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"sec-dedup pick = plaintext (widths 1, 2, both modes)"
       (QCheck.make QCheck.Gen.(list_size (int_range 1 6) (int_bound 3)))
       (fun ids ->
         let items =
           List.map (fun id -> let w, seen = value id in scored ~seen (oid id) w w) ids
         in
         let reals =
           List.map
             (fun id -> let w, seen = value id in (Some (oid id), w, Array.to_list seen))
             (distinct Fun.id ids)
         in
         let dups = List.length ids - List.length reals in
         List.for_all
           (fun domains ->
             let run mode = List.sort compare (List.map view (Sec_dedup.run { ctx with Ctx.domains } ~mode items)) in
             run Sec_dedup.Replace = List.sort compare (reals @ List.init dups (fun _ -> garbage 2))
             && run Sec_dedup.Eliminate = List.sort compare reals)
           widths))

(* SecUpdate against plaintext: an old entry matched by a new item adds
   its worst and seen slots; the matched new item becomes garbage
   (Replace) or is dropped (Eliminate); the rest pass unchanged. *)
let prop_sec_update =
  let side = QCheck.Gen.(list_size (int_range 1 4) (triple (int_bound 5) (int_bound 50) (pair bool bool))) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"sec-update pick = plaintext (widths 1, 2, both modes)"
       (QCheck.make QCheck.Gen.(pair side side))
       (fun (olds, news) ->
         let olds = distinct (fun (id, _, _) -> id) olds and news = distinct (fun (id, _, _) -> id) news in
         let seen (a, b) = [ Bool.to_int a; Bool.to_int b ] in
         let item (id, w, s) = scored ~seen:(Array.of_list (seen s)) (oid id) w 0 in
         let t_list = List.map item olds and gamma = List.map item news in
         let match_of id = List.find_opt (fun (i, _, _) -> i = id) news in
         let merged =
           List.map
             (fun (id, w, s) ->
               match match_of id with
               | Some (_, w', s') -> (Some (oid id), w + w', List.map2 ( + ) (seen s) (seen s'))
               | None -> (Some (oid id), w, seen s))
             olds
         in
         let matched (id, _, _) = List.exists (fun (i, _, _) -> i = id) olds in
         let kept = List.filter (fun n -> not (matched n)) news in
         let kept_views = List.map (fun (id, w, s) -> (Some (oid id), w, seen s)) kept in
         let garbage_views = List.init (List.length news - List.length kept) (fun _ -> garbage 2) in
         List.for_all
           (fun domains ->
             let run mode =
               List.sort compare
                 (List.map view (Sec_update.run { ctx with Ctx.domains } ~mode ~t_list ~gamma))
             in
             run Sec_dedup.Replace = List.sort compare (merged @ kept_views @ garbage_views)
             && run Sec_dedup.Eliminate = List.sort compare (merged @ kept_views))
           widths))

(* S2 refuses a pick whose grid or field counts do not fit together. *)
let test_pick_refusals () =
  let s2 = standalone_s2 () in
  let refuses name msg req =
    Alcotest.check_raises name (Invalid_argument ("S2_server: " ^ msg)) (fun () ->
        ignore (S2_server.handle s2 ~label:"test" req))
  in
  let c () = enc 5 in
  let update mode diffs merged cells =
    Wire.Update_pick
      { mode; diffs = List.init diffs (fun _ -> c ()); merged = List.map (List.map c) merged;
        cells = List.map (List.map c) cells }
  in
  refuses "worst: a score short" "worst pick count mismatch"
    (Wire.Worst_pick { diffs = [ c (); c () ]; scores = [ c () ] });
  refuses "update: no rows" "ragged update grid" (update Wire.Eliminate 2 [] []);
  refuses "update: a grid that is not rows x cols" "ragged update grid"
    (update Wire.Eliminate 3 [ [ (); () ]; [ (); () ] ] []);
  refuses "update: ragged fields" "ragged update pick fields"
    (update Wire.Eliminate 2 [ [ (); () ]; [ () ] ] []);
  refuses "update: a row without cells" "ragged update pick cells"
    (update Wire.Replace 2 [ [ () ]; [ () ] ] [ [ () ] ]);
  refuses "update: cells in Eliminate mode" "ragged update pick cells"
    (update Wire.Eliminate 2 [ [ () ]; [ () ] ] [ [ () ]; [ () ] ]);
  refuses "dedup: a pair short" "dedup pair count mismatch"
    (Wire.Dedup_pick { diffs = []; items = [ [ c () ]; [ c () ] ] });
  refuses "dedup: ragged fields" "ragged dedup pick item"
    (Wire.Dedup_pick { diffs = [ c () ]; items = [ [ c (); c () ]; [ c () ] ] });
  refuses "join: a diff without fields" "join pick count mismatch"
    (Wire.Join_pick { diffs = [ c (); c () ]; fields = [ [ c () ] ] });
  refuses "join: fields without a diff" "join pick count mismatch"
    (Wire.Join_pick { diffs = [ c () ]; fields = [ [ c () ]; [ c () ] ] });
  refuses "join: ragged fields" "ragged join pick fields"
    (Wire.Join_pick { diffs = [ c (); c () ]; fields = [ [ c () ]; [ c (); c () ] ] })

(* S1 raises a typed Proto_error when S2's answer to a pick has the
   wrong shape. *)
let test_pick_desync () =
  let one = enc 1 in
  let backend ops =
    List.map
      (fun (op, _) ->
        match op with
        | Wire.Mux_req { req = Wire.Update_pick _; _ } ->
          Wire.Mux_answer (Wire.Picked { cts = [ one ]; flags = [] })
        | Wire.Mux_req _ -> Wire.Mux_answer (Wire.Cts [ one ])
        | _ -> Wire.Mux_ok)
      ops
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed:"test_proto pick desync" ~key_bits:128 ~rand_bits:96 () in
  let derived = Ctx.derive ctx_rng pub sk in
  let items = [ scored "o1" 1 1; scored "o2" 2 2 ] in
  List.iter
    (fun (name, f) ->
      let session = Sched.open_query sched in
      let mctx = Ctx.of_derived ~blind_bits:48 ~mode:(Ctx.Mux (sched, session)) derived in
      Alcotest.(check bool) (name ^ ": Proto_error") true
        (try
           f mctx;
           false
         with Proto_error.Proto_error _ -> true);
      Sched.close_query sched session)
    [ ("SecWorst", fun c -> ignore (Sec_worst.run c ~target:(entry "o1" 1) ~others:[ entry "o2" 2 ]));
      ("SecDedup replace", fun c -> ignore (Sec_dedup.run c ~mode:Sec_dedup.Replace items));
      ("SecDedup eliminate", fun c -> ignore (Sec_dedup.run c ~mode:Sec_dedup.Eliminate items));
      ( "SecUpdate replace",
        fun c -> ignore (Sec_update.run c ~mode:Sec_dedup.Replace ~t_list:items ~gamma:[ scored "o3" 3 3 ]) );
      ( "SecUpdate eliminate",
        fun c ->
          ignore (Sec_update.run c ~mode:Sec_dedup.Eliminate ~t_list:items ~gamma:[ scored "o3" 3 3 ]) ) ];
  Sched.stop sched

(* A Replace reply that carries p, which no encryption can be, has no
   inverse: SecDedup and SecUpdate raise a typed Proto_error, as for a
   reply of the wrong shape, and not the inversion's Failure. The real
   S2 answers; the backend swaps p into the first Enc(d * u) of a
   Dedup_pick reply and the last of an Update_pick reply. *)
let test_pick_non_unit () =
  let seed = "test_proto pick non-unit" in
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits:128 ~rand_bits:96 () in
  let derived = Ctx.derive ctx_rng pub sk in
  let p =
    let p, _, _ = Paillier.secret_params sk in
    Paillier.of_nat pub p
  in
  let start = S2_server.provision { Wire.seed; key_bits = 128; rand_bits = Some 96; obs = false } in
  let st = S2_server.mux_state ~make:(fun ~session:_ -> start ()) in
  let tamper req resp =
    match (req, resp) with
    | Wire.Dedup_pick _, Wire.Cts (d :: _ :: rest) -> Wire.Cts (d :: p :: rest)
    | Wire.Update_pick _, Wire.Picked { cts; flags } ->
      Wire.Picked { cts = List.rev (p :: List.tl (List.rev cts)); flags }
    | _ -> resp
  in
  let backend ops =
    List.map2
      (fun (op, _) reply ->
        match (op, reply) with
        | Wire.Mux_req { req; _ }, Wire.Mux_answer resp -> Wire.Mux_answer (tamper req resp)
        | _ -> reply)
      ops (S2_server.handle_mux_ops st ops)
  in
  let sched = Sched.create ~window_us:0 ~backend () in
  let scored oid =
    let enc i = Paillier.encrypt rng pub (Nat.of_int i) in
    { Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys oid; worst = enc 3; best = enc 3;
      seen = [| enc 1; enc 0 |] }
  in
  List.iter
    (fun (name, f) ->
      let session = Sched.open_query sched in
      let mctx = Ctx.of_derived ~blind_bits:48 ~mode:(Ctx.Mux (sched, session)) derived in
      let outcome =
        match f mctx with
        | () -> "no error"
        | exception Proto_error.Proto_error _ -> "Proto_error"
        | exception e -> Printexc.to_string e
      in
      Alcotest.(check string) name "Proto_error" outcome;
      Sched.close_query sched session)
    [ ( "SecDedup replace",
        fun c -> ignore (Sec_dedup.run c ~mode:Sec_dedup.Replace [ scored "o1"; scored "o2" ]) );
      ( "SecUpdate replace",
        fun c ->
          ignore
            (Sec_update.run c ~mode:Sec_dedup.Replace ~t_list:[ scored "o1"; scored "o2" ]
               ~gamma:[ scored "o3" ]) ) ];
  Sched.stop sched

(* The shared-table and one-comb kernels are the separate calls they
   replace, ciphertext for ciphertext and count for count: a row of
   [scalar_mul_rows] is [scalar_mul_many] of the same pairs, and
   [scalar_mul_each] is [scalar_mul] per weight (zero weights and
   weights past n included). *)
let test_shared_tables () =
  let counted f =
    let col = Obs.Collector.create () in
    let prev = Obs.is_enabled () in
    Obs.set_enabled true;
    let r = Fun.protect ~finally:(fun () -> Obs.set_enabled prev) (fun () -> Obs.with_collector col f) in
    let got = Obs.Metrics.get (Obs.Collector.metrics col) in
    (r, List.map got Obs.Metrics.[ Paillier_mul; Modexp ])
  in
  let n = pub.Paillier.n in
  let cts = Array.init 3 (fun i -> enc (i + 2)) in
  let weight () = Rng.nat_below rng n in
  let rows =
    [| Array.init 3 (fun _ -> weight ()); [| Nat.zero; weight (); Nat.zero |]; Array.make 3 Nat.zero;
       [| Nat.add n (weight ()); weight (); Nat.one |] |]
  in
  let shared, shared_counts = counted (fun () -> Paillier.scalar_mul_rows pub cts rows) in
  let separate, separate_counts =
    counted (fun () ->
        Array.map (fun row -> Paillier.scalar_mul_many pub (Array.to_list (Array.combine cts row))) rows)
  in
  Alcotest.(check bool) "rows = scalar_mul_many per row" true
    (Array.for_all2 Paillier.equal_ct shared separate);
  Alcotest.(check (list int)) "rows: same counts" separate_counts shared_counts;
  let ks = [ weight (); Nat.zero; Nat.one; Nat.add n Nat.two; weight (); Nat.pred n ] in
  let each, each_counts = counted (fun () -> Paillier.scalar_mul_each pub cts.(0) ks) in
  let one_by_one, one_counts = counted (fun () -> List.map (Paillier.scalar_mul pub cts.(0)) ks) in
  Alcotest.(check bool) "each = scalar_mul per weight" true (List.for_all2 Paillier.equal_ct each one_by_one);
  Alcotest.(check (list int)) "each: same counts" one_counts each_counts

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

(* [Gadgets.strip] is [Paillier.sub c (encrypt m)] bit for bit and draws
   the same noise: one S1 per form on identically seeded streams, under
   shortened and textbook noise. *)
let test_strip () =
  List.iter
    (fun (policy, pub) ->
      let s1_at () = { s1 with Ctx.pub; rng = Rng.create ~seed:"test_proto strip" } in
      let a = s1_at () and b = s1_at () in
      List.iter
        (fun m ->
          let c = enc 42 in
          let got = Gadgets.strip a c (Nat.of_int m) in
          let want = Paillier.sub pub c (Paillier.encrypt b.Ctx.rng pub (Nat.of_int m)) in
          Alcotest.(check string)
            (Printf.sprintf "%s, m = %d: same ciphertext" policy m)
            (Nat.to_string (nat_of want)) (Nat.to_string (nat_of got));
          Alcotest.(check int) (Printf.sprintf "%s, m = %d: 42 - m" policy m) (42 - m) (dec got))
        [ 0; 1; 40 ])
    [ ("rand_bits 96", Paillier.with_rand_bits pub (Some 96));
      ("textbook", Paillier.with_rand_bits pub None) ]

let suite =
  [ ("channel", [ Alcotest.test_case "accounting" `Quick test_channel ]);
    ("gadgets", [ Alcotest.test_case "strip = sub of a fresh encryption" `Quick test_strip ]);
    ( "s2-join-picks",
      [ Alcotest.test_case "conjunction verdicts pick the fields" `Quick test_join_pick_verdicts;
        Alcotest.test_case "answers are fresh encryptions" `Quick test_join_pick_fresh;
        Alcotest.test_case "a non-unit is a named error" `Quick test_join_pick_non_unit
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
        Alcotest.test_case "paper Example 8.2" `Quick test_sec_refresh_example_8_2;
        Alcotest.test_case "one block: exact counts" `Quick test_sec_refresh_counts;
        prop_sec_refresh;
        Alcotest.test_case "S2 refuses a non-bit and a ragged block" `Quick
          test_sec_refresh_refusals;
        Alcotest.test_case "short Cts reply is a Proto_error" `Quick test_sec_refresh_desync
      ] );
    ( "blocks",
      [ Alcotest.test_case "sec-dedup run_many: one round" `Quick test_dedup_many;
        Alcotest.test_case "sec-update run_many: one round" `Quick test_update_many;
        Alcotest.test_case "sec-refresh run_many: one round" `Quick test_refresh_many
      ] );
    ( "picks",
      [ Alcotest.test_case "one round each, no DJ operation" `Quick test_pick_counts;
        prop_sec_worst;
        prop_sec_dedup;
        prop_sec_update;
        Alcotest.test_case "S2 refuses a ragged grid or field count" `Quick test_pick_refusals;
        Alcotest.test_case "a short reply is a Proto_error" `Quick test_pick_desync;
        Alcotest.test_case "a non-unit reply is a Proto_error" `Quick test_pick_non_unit;
        Alcotest.test_case "shared tables = separate calls" `Quick test_shared_tables
      ] );
    ("latency", [ Alcotest.test_case "50 Mbps link model" `Quick test_latency_model ]);
    ("trace", [ Alcotest.test_case "records events" `Quick test_trace_records ])
  ]

let () = Alcotest.run "proto" suite
