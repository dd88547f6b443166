(* Tests for the EHL and EHL+ encrypted hash lists: the equality-testing
   ⊖ operation (Lemma 5.2), indistinguishability-adjacent sanity checks,
   the ⊙ masking op, and size/FPR accounting. *)

open Bignum
open Crypto

let rng = Rng.create ~seed:"test_ehl"
let pub, sk = Paillier.keygen rng ~bits:128
let keys = Prf.gen_keys rng 5
let nat = Alcotest.testable Nat.pp Nat.equal

(* ---------------- EHL (bit-list) ---------------- *)

let params = Ehl.Ehl_bits.default_params

let test_ehl_encode_shape () =
  let e = Ehl.Ehl_bits.encode rng pub ~keys ~params "obj-1" in
  Alcotest.(check int) "h cells" params.Ehl.Ehl_bits.h (Ehl.Ehl_bits.length e);
  (* decrypting the cells yields s or fewer ones, rest zeros *)
  let ones =
    Array.fold_left
      (fun acc c -> acc + Nat.to_int (Paillier.decrypt sk c))
      0 (Ehl.Ehl_bits.cells e)
  in
  Alcotest.(check bool) "between 1 and s ones" true (ones >= 1 && ones <= params.Ehl.Ehl_bits.s)

let test_ehl_diff_equal () =
  let a = Ehl.Ehl_bits.encode rng pub ~keys ~params "same-object" in
  let b = Ehl.Ehl_bits.encode rng pub ~keys ~params "same-object" in
  let d = Ehl.Ehl_bits.diff rng pub a b in
  Alcotest.check nat "Enc(0) for equal objects" Nat.zero (Paillier.decrypt sk d)

let test_ehl_diff_unequal () =
  (* with h=23, s=5 collisions exist but are rare; check several pairs *)
  let misses = ref 0 in
  for i = 0 to 19 do
    let a = Ehl.Ehl_bits.encode rng pub ~keys ~params (Printf.sprintf "obj-a-%d" i) in
    let b = Ehl.Ehl_bits.encode rng pub ~keys ~params (Printf.sprintf "obj-b-%d" i) in
    let d = Ehl.Ehl_bits.diff rng pub a b in
    if Nat.is_zero (Paillier.decrypt sk d) then incr misses
  done;
  Alcotest.(check bool) "mostly nonzero for distinct objects" true (!misses <= 2)

let test_ehl_wrong_keys () =
  Alcotest.check_raises "wrong key count" (Invalid_argument "Ehl_bits.encode: wrong number of keys")
    (fun () -> ignore (Ehl.Ehl_bits.encode rng pub ~keys:(Prf.gen_keys rng 3) ~params "x"))

let test_ehl_fpr_formula () =
  let fpr = Ehl.Ehl_bits.false_positive_rate params in
  (* (1 - e^{-5/23})^5 ~ 2.6e-4 *)
  Alcotest.(check bool) "fpr in expected band" true (fpr > 1e-4 && fpr < 1e-3)

let test_ehl_rerandomize () =
  let a = Ehl.Ehl_bits.encode rng pub ~keys ~params "rr" in
  let a' = Ehl.Ehl_bits.rerandomize rng pub a in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "cells changed" false (Paillier.equal_ct c (Ehl.Ehl_bits.cells a').(i));
      Alcotest.check nat "plaintext kept" (Paillier.decrypt sk c) (Paillier.decrypt sk (Ehl.Ehl_bits.cells a').(i)))
    (Ehl.Ehl_bits.cells a)

(* ---------------- EHL+ ---------------- *)

(* one ⊖ as a phase runs it: blinds drawn for [a], [a] inverted *)
let diff ?blind_bits a b =
  let blinds = Ehl.Ehl_plus.draw_blinds ?blind_bits rng pub a in
  Ehl.Ehl_plus.diff pub ~blinds (Ehl.Ehl_plus.invert_many pub [| a |]).(0) b

(* The ⊖ of Π a_i^ρ_i · b_i^(n − ρ_i), which raised every cell of both
   sides: the reference the inverted form is checked against. *)
let diff_two_sided ~blinds a b =
  let n = pub.Paillier.n in
  let a = Ehl.Ehl_plus.cells a and b = Ehl.Ehl_plus.cells b in
  Paillier.scalar_mul_many pub
    (List.concat (List.init (Array.length a) (fun i -> [ (a.(i), blinds.(i)); (b.(i), Nat.sub n blinds.(i)) ])))

(* For the same blinds the diff decrypts to the negation of the two-sided
   form's plaintext, so it is zero exactly when that one is; at full and
   at short blinds, for equal and unequal items. One [invert_many] over
   several items inverts each as a lone call would. *)
let test_ehlp_diff_negates_two_sided () =
  let n = pub.Paillier.n in
  let items = Array.init 4 (fun i -> Ehl.Ehl_plus.encode rng pub ~keys (Printf.sprintf "neg-%d" (i mod 3))) in
  let invs = Ehl.Ehl_plus.invert_many pub items in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          List.iter
            (fun blind_bits ->
              let blinds = Ehl.Ehl_plus.draw_blinds ?blind_bits rng pub a in
              let d = Ehl.Ehl_plus.diff pub ~blinds invs.(i) b in
              let lone = Ehl.Ehl_plus.diff pub ~blinds (Ehl.Ehl_plus.invert_many pub [| a |]).(0) b in
              let old = Paillier.decrypt sk (diff_two_sided ~blinds a b) in
              let name = Printf.sprintf "items %d, %d" i j in
              Alcotest.(check bool) (name ^ ": batch = lone inversion") true (Paillier.equal_ct d lone);
              Alcotest.check nat (name ^ ": negated plaintext")
                (Modular.sub Nat.zero old ~m:n) (Paillier.decrypt sk d);
              Alcotest.(check bool) (name ^ ": zero iff equal") (i mod 3 = j mod 3)
                (Nat.is_zero (Paillier.decrypt sk d)))
            [ None; Some 48 ])
        items)
    items

(* A cell no encryption can be (p divides it) has no inverse mod n^2. *)
let test_ehlp_invert_non_unit () =
  let p, _, _ = Paillier.secret_params sk in
  let a = Ehl.Ehl_plus.encode rng pub ~keys "unit" in
  let cells = Array.copy (Ehl.Ehl_plus.cells a) in
  cells.(2) <- Paillier.of_nat pub p;
  Alcotest.check_raises "not invertible" (Failure "Modular.inv: not invertible") (fun () ->
      ignore (Ehl.Ehl_plus.invert_many pub [| a; Ehl.Ehl_plus.of_cells cells |]))

let test_ehlp_diff_equal () =
  let a = Ehl.Ehl_plus.encode rng pub ~keys "patient-42" in
  let b = Ehl.Ehl_plus.encode rng pub ~keys "patient-42" in
  Alcotest.check nat "Enc(0) for equal" Nat.zero (Paillier.decrypt sk (diff a b))

let test_ehlp_diff_unequal () =
  for i = 0 to 19 do
    let a = Ehl.Ehl_plus.encode rng pub ~keys (Printf.sprintf "p-%d" i) in
    let b = Ehl.Ehl_plus.encode rng pub ~keys (Printf.sprintf "q-%d" i) in
    Alcotest.(check bool) "nonzero for distinct" false
      (Nat.is_zero (Paillier.decrypt sk (diff a b)))
  done

let test_ehlp_diff_small_blind () =
  (* short blinding exponents must preserve the equality semantics *)
  let a = Ehl.Ehl_plus.encode rng pub ~keys "blind-test" in
  let b = Ehl.Ehl_plus.encode rng pub ~keys "blind-test" in
  let c = Ehl.Ehl_plus.encode rng pub ~keys "blind-other" in
  Alcotest.check nat "equal" Nat.zero
    (Paillier.decrypt sk (diff ~blind_bits:40 a b));
  Alcotest.(check bool) "unequal" false
    (Nat.is_zero (Paillier.decrypt sk (diff ~blind_bits:40 a c)))

let test_ehlp_smaller_than_ehl () =
  let e = Ehl.Ehl_bits.encode rng pub ~keys ~params "size" in
  let ep = Ehl.Ehl_plus.encode rng pub ~keys "size" in
  Alcotest.(check int) "s cells" 5 (Ehl.Ehl_plus.length ep);
  Alcotest.(check bool) "EHL+ smaller" true
    (Ehl.Ehl_plus.size_bytes pub ep < Ehl.Ehl_bits.size_bytes pub e)

let test_ehlp_mask_changes_hidden_values () =
  (* masking with Enc(alpha) then with Enc(-alpha) restores equality *)
  let a = Ehl.Ehl_plus.encode rng pub ~keys "masked" in
  let b = Ehl.Ehl_plus.encode rng pub ~keys "masked" in
  let alphas = Array.init 5 (fun _ -> Rng.nat_below rng pub.Paillier.n) in
  let enc_alphas = Array.map (Paillier.encrypt rng pub) alphas in
  let masked = Ehl.Ehl_plus.mask pub a enc_alphas in
  (* masked vs b: no longer equal *)
  Alcotest.(check bool) "mask breaks equality" false
    (Nat.is_zero (Paillier.decrypt sk (diff masked b)));
  (* unmasking restores it *)
  let neg_alphas = Array.map (fun c -> Paillier.neg pub c) enc_alphas in
  let unmasked = Ehl.Ehl_plus.mask pub masked neg_alphas in
  Alcotest.check nat "unmask restores" Nat.zero (Paillier.decrypt sk (diff unmasked b))

let test_ehlp_masked_pair_still_equal () =
  (* SecDedup invariant: masking *both* copies with the same alphas keeps
     them equal to each other while unlinkable to the originals *)
  let a = Ehl.Ehl_plus.encode rng pub ~keys "pairwise" in
  let b = Ehl.Ehl_plus.encode rng pub ~keys "pairwise" in
  let alphas = Array.init 5 (fun _ -> Paillier.encrypt rng pub (Rng.nat_below rng pub.Paillier.n)) in
  let ma = Ehl.Ehl_plus.mask pub a alphas and mb = Ehl.Ehl_plus.mask pub b alphas in
  Alcotest.check nat "still equal under same mask" Nat.zero
    (Paillier.decrypt sk (diff ma mb))

let test_ehlp_fpr_negligible () =
  let fpr = Ehl.Ehl_plus.false_positive_rate pub ~s:5 ~rows:1_000_000 in
  Alcotest.(check bool) "negligible for 1M rows" true (fpr < 1e-100)

let test_ehlp_keyed () =
  (* different key sets produce incomparable encodings *)
  let other_keys = Prf.gen_keys rng 5 in
  let a = Ehl.Ehl_plus.encode rng pub ~keys "kx" in
  let b = Ehl.Ehl_plus.encode rng pub ~keys:other_keys "kx" in
  Alcotest.(check bool) "cross-key diff nonzero" false
    (Nat.is_zero (Paillier.decrypt sk (diff a b)))

let prop_ehlp_equality_iff =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"EHL+ diff = 0 iff same id"
       QCheck.(pair small_nat small_nat)
       (fun (i, j) ->
         let a = Ehl.Ehl_plus.encode rng pub ~keys (string_of_int i) in
         let b = Ehl.Ehl_plus.encode rng pub ~keys (string_of_int j) in
         let z = Nat.is_zero (Paillier.decrypt sk (diff a b)) in
         z = (i = j)))

let suite =
  [ ( "ehl",
      [ Alcotest.test_case "encode shape" `Quick test_ehl_encode_shape;
        Alcotest.test_case "diff equal -> Enc(0)" `Quick test_ehl_diff_equal;
        Alcotest.test_case "diff unequal -> random" `Quick test_ehl_diff_unequal;
        Alcotest.test_case "wrong key count" `Quick test_ehl_wrong_keys;
        Alcotest.test_case "fpr formula" `Quick test_ehl_fpr_formula;
        Alcotest.test_case "rerandomize" `Quick test_ehl_rerandomize
      ] );
    ( "ehl-plus",
      [ Alcotest.test_case "diff equal -> Enc(0)" `Quick test_ehlp_diff_equal;
        Alcotest.test_case "diff unequal -> random" `Quick test_ehlp_diff_unequal;
        Alcotest.test_case "short blinding exponents" `Quick test_ehlp_diff_small_blind;
        Alcotest.test_case "more compact than EHL" `Quick test_ehlp_smaller_than_ehl;
        Alcotest.test_case "mask/unmask" `Quick test_ehlp_mask_changes_hidden_values;
        Alcotest.test_case "same mask preserves equality" `Quick test_ehlp_masked_pair_still_equal;
        Alcotest.test_case "fpr negligible" `Quick test_ehlp_fpr_negligible;
        Alcotest.test_case "keyed" `Quick test_ehlp_keyed;
        prop_ehlp_equality_iff;
        Alcotest.test_case "diff negates the two-sided form" `Quick test_ehlp_diff_negates_two_sided;
        Alcotest.test_case "a non-unit cell has no inverse" `Quick test_ehlp_invert_non_unit
      ] )
  ]

let () = Alcotest.run "ehl" suite
