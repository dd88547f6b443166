(* Tests for the secure-kNN baseline: the SM sub-protocol against plaintext
   multiplication, kNN answers against a plaintext oracle, and the O(n*m)
   traffic signature the Section 11.3 comparison rests on. *)

open Bignum
open Crypto
open Dataset

let rng = Rng.create ~seed:"test_sknn"
let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128
let ctx = Proto.Ctx.of_keys ~blind_bits:48 (Rng.fork rng ~label:"ctx") pub sk

let enc i = Paillier.encrypt rng pub (Nat.of_int i)
let dec c = Nat.to_int (Paillier.decrypt sk c)

let test_secure_multiply () =
  Alcotest.(check int) "3*4" 12 (dec (Sknn.secure_multiply ctx (enc 3) (enc 4)));
  Alcotest.(check int) "0*9" 0 (dec (Sknn.secure_multiply ctx (enc 0) (enc 9)));
  Alcotest.(check int) "big" (12345 * 6789) (dec (Sknn.secure_multiply ctx (enc 12345) (enc 6789)))

let test_secure_multiply_signed () =
  (* (a - b)^2 via SM with a negative difference *)
  let d = Paillier.sub pub (enc 3) (enc 8) in
  Alcotest.(check int) "(-5)^2" 25 (dec (Sknn.secure_multiply ctx d d))

let prop_secure_multiply =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"SM matches plaintext product"
       QCheck.(pair (int_bound 100_000) (int_bound 100_000))
       (fun (a, b) -> dec (Sknn.secure_multiply ctx (enc a) (enc b)) = a * b))

let plain_knn rel point k =
  let dist row =
    let acc = ref 0 in
    Array.iteri (fun i v -> acc := !acc + ((v - point.(i)) * (v - point.(i)))) row;
    !acc
  in
  let scored =
    Array.to_list
      (Array.init (Relation.n_rows rel) (fun i -> (i, dist (Relation.row rel i))))
  in
  List.sort (fun (i1, d1) (i2, d2) -> if d1 <> d2 then compare d1 d2 else compare i1 i2) scored
  |> List.map fst
  |> List.filteri (fun i _ -> i < k)

let test_knn_small () =
  let rel = Relation.create ~name:"pts" [| [| 0; 0 |]; [| 10; 10 |]; [| 1; 1 |]; [| 5; 5 |] |] in
  let db = Sknn.encrypt_db rng pub rel in
  let got = Sknn.query ctx db ~point:[| 0; 1 |] ~k:2 in
  Alcotest.(check (list int)) "two nearest" [ 0; 2 ] (List.sort compare got)

let prop_knn_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:10 ~name:"kNN matches plaintext oracle (distance multiset)"
       QCheck.(pair (int_bound 10_000) (int_range 1 4))
       (fun (seed, k) ->
         let rel =
           Synthetic.generate ~seed:(string_of_int seed) ~name:"knn" ~rows:12 ~attrs:3
             (Synthetic.Uniform { lo = 0; hi = 20 })
         in
         let db = Sknn.encrypt_db rng pub rel in
         let point = [| 10; 10; 10 |] in
         let got = Sknn.query ctx db ~point ~k in
         let expect = plain_knn rel point k in
         (* distances can tie, so compare the distance multisets *)
         let dist i =
           let row = Relation.row rel i in
           let acc = ref 0 in
           Array.iteri (fun j v -> acc := !acc + ((v - point.(j)) * (v - point.(j)))) row;
           !acc
         in
         List.sort compare (List.map dist got) = List.sort compare (List.map dist expect)))

let test_traffic_is_linear_in_nm () =
  (* the O(n*m) bandwidth signature: per query, SM traffic ~ 3*n*m cts *)
  let rel = Synthetic.generate ~seed:"bw" ~name:"knnbw" ~rows:8 ~attrs:3
      (Synthetic.Uniform { lo = 0; hi = 20 }) in
  let db = Sknn.encrypt_db rng pub rel in
  let ch = (Proto.Ctx.channel ctx) in
  let before = Proto.Channel.snapshot ch in
  ignore (Sknn.query ctx db ~point:[| 1; 2; 3 |] ~k:2);
  let d = Proto.Channel.diff before (Proto.Channel.snapshot ch) in
  let ct = Paillier.ciphertext_bytes pub in
  let sm_bytes = 3 * 8 * 3 * ct in
  Alcotest.(check bool) "traffic >= 3*n*m ciphertexts" true (d.Proto.Channel.bytes >= sm_bytes)

(* The distance phase sends the same chunks at every width: at width 2
   the neighbours, bytes and rounds must equal the width-1 run's. *)
let test_pipeline_width_two () =
  let go domains =
    let rng = Rng.create ~seed:"knn-width" in
    let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128 in
    let ctx = Proto.Ctx.of_keys ~blind_bits:48 ~domains (Rng.fork rng ~label:"ctx") pub sk in
    let rel =
      Synthetic.generate ~seed:"knn-width" ~name:"knnw" ~rows:20 ~attrs:3
        (Synthetic.Uniform { lo = 0; hi = 50 })
    in
    let db = Sknn.encrypt_db (Rng.fork rng ~label:"db") pub rel in
    let got = Sknn.query ctx db ~point:[| 25; 25; 25 |] ~k:3 in
    let ch = Proto.Ctx.channel ctx in
    (got, Proto.Channel.bytes_total ch, Proto.Channel.rounds_total ch)
  in
  let n1, bytes1, rounds1 = go 1 and n2, bytes2, rounds2 = go 2 in
  Alcotest.(check (list int)) "neighbours" n1 n2;
  Alcotest.(check int) "bytes" bytes1 bytes2;
  Alcotest.(check int) "rounds" rounds1 rounds2

let test_db_size () =
  let rel = Synthetic.generate ~seed:"sz" ~name:"knnsz" ~rows:10 ~attrs:4
      (Synthetic.Uniform { lo = 0; hi = 9 }) in
  let db = Sknn.encrypt_db rng pub rel in
  Alcotest.(check int) "n" 10 (Sknn.n_records db);
  Alcotest.(check int) "n*m ciphertexts" (10 * 4 * Paillier.ciphertext_bytes pub)
    (Sknn.size_bytes pub db)

(* ---------------- SBD ---------------- *)

let test_sbd_roundtrip () =
  List.iter
    (fun v ->
      let bits = Sknn.Sbd.decompose ctx ~bits:10 (enc v) in
      Alcotest.(check int) "bit count" 10 (Array.length bits);
      Array.iteri
        (fun i b ->
          Alcotest.(check int) (Printf.sprintf "bit %d of %d" i v) ((v lsr i) land 1) (dec b))
        bits;
      Alcotest.(check int) "recompose" v (dec (Sknn.Sbd.recompose ctx bits)))
    [ 0; 1; 513; 1023 ]

let prop_sbd =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"SBD decompose/recompose identity"
       QCheck.(int_bound 65535)
       (fun v -> dec (Sknn.Sbd.recompose ctx (Sknn.Sbd.decompose ctx ~bits:16 (enc v))) = v))

(* ---------------- Smin ---------------- *)

let test_greater_bit () =
  let check a b =
    let ab = Sknn.Sbd.decompose ctx ~bits:8 (enc a) in
    let bb = Sknn.Sbd.decompose ctx ~bits:8 (enc b) in
    Alcotest.(check int)
      (Printf.sprintf "[%d > %d]" a b)
      (if a > b then 1 else 0)
      (dec (Sknn.Smin.greater_bit ctx ab bb))
  in
  check 5 3;
  check 3 5;
  check 7 7;
  check 0 255;
  check 255 0

let prop_min_pair =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15 ~name:"secure min = plaintext min"
       QCheck.(pair (int_bound 255) (int_bound 255))
       (fun (a, b) -> dec (Sknn.Smin.min_pair ctx ~bits:8 (enc a) (enc b)) = min a b))

let test_min_of () =
  let vals = [| 9; 4; 7; 4; 250 |] in
  let cands = Array.map (fun v -> Sknn.Sbd.decompose ctx ~bits:8 (enc v)) vals in
  let min_bits = Sknn.Smin.min_of ctx cands in
  Alcotest.(check int) "fold min" 4 (dec (Sknn.Sbd.recompose ctx min_bits))

let test_query_smin_oracle () =
  let rel = Relation.create ~name:"pts" [| [| 0; 0 |]; [| 10; 10 |]; [| 1; 1 |]; [| 5; 5 |] |] in
  let db = Sknn.encrypt_db rng pub rel in
  let got = Sknn.query_smin ctx db ~point:[| 0; 1 |] ~k:2 ~bits:10 in
  Alcotest.(check (list int)) "nearest two via SMIN" [ 0; 2 ] (List.sort compare got)

let suite =
  [ ( "secure-multiply",
      [ Alcotest.test_case "known products" `Quick test_secure_multiply;
        Alcotest.test_case "signed operand" `Quick test_secure_multiply_signed;
        prop_secure_multiply
      ] );
    ( "sbd",
      [ Alcotest.test_case "roundtrip + bit values" `Quick test_sbd_roundtrip; prop_sbd ] );
    ( "smin",
      [ Alcotest.test_case "greater bit" `Quick test_greater_bit;
        prop_min_pair;
        Alcotest.test_case "fold min" `Quick test_min_of;
        Alcotest.test_case "query via SMIN matches oracle" `Quick test_query_smin_oracle
      ] );
    ( "knn",
      [ Alcotest.test_case "small example" `Quick test_knn_small;
        prop_knn_oracle;
        Alcotest.test_case "O(nm) traffic" `Quick test_traffic_is_linear_in_nm;
        Alcotest.test_case "db size" `Quick test_db_size;
        Alcotest.test_case "width-2 pipeline = width 1" `Quick test_pipeline_width_two
      ] )
  ]

let () = Alcotest.run "sknn" suite
