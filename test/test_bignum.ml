(* Tests for the bignum substrate: unit tests on known values plus qcheck
   properties cross-checked against native-int arithmetic and algebraic
   identities that hold at any size. *)

open Bignum

let nat = Alcotest.testable Nat.pp Nat.equal
let bigint = Alcotest.testable Bigint.pp Bigint.equal

(* -- Deterministic pseudo-random Nat generation for property tests -- *)

let splitmix seed =
  let state = ref seed in
  fun () ->
    state := !state + 0x1E3779B97F4A7C15;
    let z = !state in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

let gen_nat_of_bits rng bits =
  if bits <= 0 then Nat.zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = Bytes.init nbytes (fun _ -> Char.chr (rng () land 0xff)) in
    let x = Nat.of_bytes (Bytes.to_string b) in
    (* truncate to the requested width *)
    let extra = (8 * nbytes) - bits in
    Nat.shift_right x extra
  end

let arb_small_pair =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
    QCheck.Gen.(pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))

let arb_bits_pair =
  (* pair of bit sizes driving random big operand generation *)
  QCheck.make
    ~print:(fun (s, a, b) -> Printf.sprintf "seed=%d bits=(%d,%d)" s a b)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 1 600) (int_range 1 600))

let qtest ?(count = 200) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* ---------------- Nat unit tests ---------------- *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 67_108_863; 67_108_864; 1_000_000_007; max_int / 2 ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_string (Nat.of_string s)))
    [ "0"; "1"; "10"; "123456789012345678901234567890";
      "99999999999999999999999999999999999999999999999999" ]

let test_add_known () =
  let a = Nat.of_string "123456789012345678901234567890" in
  let b = Nat.of_string "987654321098765432109876543210" in
  Alcotest.check nat "sum" (Nat.of_string "1111111110111111111011111111100") (Nat.add a b)

let test_mul_known () =
  let a = Nat.of_string "123456789" in
  let b = Nat.of_string "987654321" in
  Alcotest.check nat "prod" (Nat.of_string "121932631112635269") (Nat.mul a b);
  let big = Nat.of_string "123456789012345678901234567890" in
  Alcotest.check nat "square"
    (Nat.of_string "15241578753238836750495351562536198787501905199875019052100")
    (Nat.mul big big)

let test_sub_known () =
  let a = Nat.of_string "1000000000000000000000000000000" in
  let b = Nat.of_string "1" in
  Alcotest.check nat "sub" (Nat.of_string "999999999999999999999999999999") (Nat.sub a b);
  Alcotest.check_raises "underflow" (Invalid_argument "Nat.sub: underflow") (fun () ->
      ignore (Nat.sub b a))

let test_divmod_known () =
  let a = Nat.of_string "123456789012345678901234567890" in
  let b = Nat.of_string "9876543210" in
  let q, r = Nat.divmod a b in
  Alcotest.check nat "q" (Nat.of_string "12499999887343749990") (q : Nat.t);
  Alcotest.check nat "r" (Nat.of_string "1562499990") r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero))

let test_shift () =
  let x = Nat.of_string "12345678901234567890" in
  Alcotest.check nat "shl/shr" x (Nat.shift_right (Nat.shift_left x 113) 113);
  Alcotest.check nat "shl = mul 2^k" (Nat.mul x (Nat.pow Nat.two 77)) (Nat.shift_left x 77);
  Alcotest.check nat "shr drops" (Nat.of_int 0) (Nat.shift_right (Nat.of_int 5) 3)

let test_bit_length () =
  Alcotest.(check int) "0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "2^100" 101 (Nat.bit_length (Nat.pow Nat.two 100));
  Alcotest.(check int) "2^100-1" 100 (Nat.bit_length (Nat.pred (Nat.pow Nat.two 100)))

let test_bytes_roundtrip () =
  let x = Nat.of_string "31415926535897932384626433832795028841971" in
  Alcotest.check nat "bytes" x (Nat.of_bytes (Nat.to_bytes x));
  Alcotest.(check string) "zero" "" (Nat.to_bytes Nat.zero);
  Alcotest.check nat "of_bytes with leading zeros" (Nat.of_int 258) (Nat.of_bytes "\000\000\001\002")

let test_hex () =
  Alcotest.(check string) "hex" "ff" (Nat.to_hex (Nat.of_int 255));
  Alcotest.check nat "of_hex" (Nat.of_int 48879) (Nat.of_hex "beef");
  let x = Nat.of_string "123456789012345678901234567890123" in
  Alcotest.check nat "hex roundtrip" x (Nat.of_hex (Nat.to_hex x))

let test_pow () =
  Alcotest.check nat "2^10" (Nat.of_int 1024) (Nat.pow Nat.two 10);
  Alcotest.check nat "x^0" Nat.one (Nat.pow (Nat.of_int 999) 0);
  Alcotest.check nat "10^30" (Nat.of_string ("1" ^ String.make 30 '0')) (Nat.pow (Nat.of_int 10) 30)

(* ---------------- Nat properties ---------------- *)

let prop_add_matches_int =
  qtest "add matches native int" arb_small_pair (fun (a, b) ->
      Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b)

let prop_mul_matches_int =
  qtest "mul matches native int" arb_small_pair (fun (a, b) ->
      Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b)

let prop_divmod_matches_int =
  qtest "divmod matches native int" arb_small_pair (fun (a, b) ->
      let b = b + 1 in
      let q, r = Nat.divmod (Nat.of_int a) (Nat.of_int b) in
      Nat.to_int q = a / b && Nat.to_int r = a mod b)

let prop_divmod_identity =
  qtest ~count:300 "a = q*b + r with 0 <= r < b (big)" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba and b = gen_nat_of_bits rng bb in
      if Nat.is_zero b then QCheck.assume_fail ()
      else begin
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0
      end)

let prop_mul_commutes =
  qtest ~count:200 "mul commutative + distributive (big)" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba
      and b = gen_nat_of_bits rng bb
      and c = gen_nat_of_bits rng ((ba + bb) / 2 + 1) in
      Nat.equal (Nat.mul a b) (Nat.mul b a)
      && Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_karatsuba_matches_school =
  (* exercise operand sizes straddling the Karatsuba cutoff *)
  qtest ~count:100 "string roundtrip at many widths" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng (ba * 3) and b = gen_nat_of_bits rng (bb * 3) in
      let p = Nat.mul a b in
      Nat.equal p (Nat.of_string (Nat.to_string p)))

let prop_sub_add_inverse =
  qtest ~count:200 "sub inverts add (big)" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba and b = gen_nat_of_bits rng bb in
      Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_bytes_roundtrip =
  qtest ~count:200 "bytes roundtrip (big)" arb_bits_pair (fun (seed, ba, _) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba in
      Nat.equal a (Nat.of_bytes (Nat.to_bytes a)))

let prop_compare_total_order =
  qtest ~count:200 "compare consistent with sub" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba and b = gen_nat_of_bits rng bb in
      let c = Nat.compare a b in
      if c = 0 then Nat.equal a b
      else if c < 0 then not (Nat.is_zero (Nat.sub b a))
      else not (Nat.is_zero (Nat.sub a b)))

(* ---------------- Bigint ---------------- *)

let test_bigint_basic () =
  let a = Bigint.of_int (-42) and b = Bigint.of_int 17 in
  Alcotest.check bigint "add" (Bigint.of_int (-25)) (Bigint.add a b);
  Alcotest.check bigint "mul" (Bigint.of_int (-714)) (Bigint.mul a b);
  Alcotest.check bigint "neg neg" (Bigint.of_int 42) (Bigint.neg a);
  Alcotest.(check string) "to_string" "-42" (Bigint.to_string a);
  Alcotest.check bigint "of_string" a (Bigint.of_string "-42")

let test_bigint_euclid () =
  (* remainder always non-negative *)
  List.iter
    (fun (a, b) ->
      let q = Bigint.div_euclid (Bigint.of_int a) (Bigint.of_int b) in
      let r = Bigint.rem_euclid (Bigint.of_int a) (Bigint.of_int b) in
      Alcotest.(check bool)
        (Printf.sprintf "%d /e %d" a b)
        true
        (Bigint.sign r >= 0
        && Bigint.compare r (Bigint.abs (Bigint.of_int b)) < 0
        && Bigint.equal (Bigint.of_int a) (Bigint.add (Bigint.mul q (Bigint.of_int b)) r)))
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 5); (6, 3); (-6, 3); (-6, -3) ]

let prop_bigint_ring =
  qtest ~count:200 "bigint ring identities" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let mk bits =
        let m = gen_nat_of_bits rng bits in
        if rng () land 1 = 0 then Bigint.of_nat m else Bigint.neg (Bigint.of_nat m)
      in
      let a = mk ba and b = mk bb and c = mk ((ba + bb) / 2 + 1) in
      let open Bigint in
      equal (add a b) (add b a)
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (sub a a) zero
      && equal (add a (neg a)) zero)

let prop_bigint_mod_nat =
  qtest ~count:200 "mod_nat in range and congruent" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let m = Nat.succ (gen_nat_of_bits rng (max 2 bb)) in
      let a0 = gen_nat_of_bits rng ba in
      let a = if rng () land 1 = 0 then Bigint.of_nat a0 else Bigint.neg (Bigint.of_nat a0) in
      let r = Bigint.mod_nat a m in
      Nat.compare r m < 0
      &&
      (* a - r divisible by m *)
      let diff = Bigint.sub a (Bigint.of_nat r) in
      Bigint.is_zero (Bigint.rem_euclid diff (Bigint.of_nat m)))

(* ---------------- Modular ---------------- *)

let test_modpow_known () =
  let m = Nat.of_int 1_000_000_007 in
  let r = Modular.pow (Nat.of_int 2) (Nat.of_int 100) ~m in
  (* 2^100 mod 1e9+7 = 976371285 *)
  Alcotest.check nat "2^100" (Nat.of_int 976371285) r;
  Alcotest.check nat "x^0" Nat.one (Modular.pow (Nat.of_int 5) Nat.zero ~m)

let test_modinv_known () =
  let m = Nat.of_int 97 in
  let i = Modular.inv (Nat.of_int 35) ~m in
  Alcotest.check nat "35 * inv = 1" Nat.one (Modular.mul (Nat.of_int 35) i ~m);
  Alcotest.check_raises "non-invertible" (Failure "Modular.inv: not invertible") (fun () ->
      ignore (Modular.inv (Nat.of_int 6) ~m:(Nat.of_int 12)))

let test_gcd_lcm () =
  Alcotest.check nat "gcd" (Nat.of_int 6) (Modular.gcd (Nat.of_int 54) (Nat.of_int 24));
  Alcotest.check nat "lcm" (Nat.of_int 216) (Modular.lcm (Nat.of_int 54) (Nat.of_int 24));
  Alcotest.check nat "gcd 0" (Nat.of_int 7) (Modular.gcd (Nat.of_int 7) Nat.zero)

let test_crt () =
  (* x = 2 mod 3, x = 3 mod 5 -> x = 8 *)
  let x = Modular.crt2 (Nat.of_int 2, Nat.of_int 3) (Nat.of_int 3, Nat.of_int 5) in
  Alcotest.check nat "crt small" (Nat.of_int 8) x

let prop_fermat =
  (* a^(p-1) = 1 mod p for prime p not dividing a *)
  qtest ~count:60 "Fermat little theorem" arb_bits_pair (fun (seed, ba, _) ->
      let rng = splitmix seed in
      let p = Nat.of_int 1_000_000_007 in
      let a = Nat.succ (Nat.rem (gen_nat_of_bits rng (max 8 ba)) (Nat.pred p)) in
      Nat.equal Nat.one (Modular.pow a (Nat.pred p) ~m:p))

let prop_modinv =
  qtest ~count:100 "modinv correct vs odd modulus" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 4 bb) in
      let m = if Nat.is_even m then Nat.succ m else m in
      let m = if Nat.compare m Nat.two <= 0 then Nat.of_int 5 else m in
      let a = Nat.rem (gen_nat_of_bits rng (max 4 ba)) m in
      if Nat.is_zero a || not (Nat.is_one (Modular.gcd a m)) then QCheck.assume_fail ()
      else Nat.equal Nat.one (Modular.mul a (Modular.inv a ~m) ~m))

let prop_egcd =
  qtest ~count:150 "egcd Bezout identity" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng (max 1 ba) and b = gen_nat_of_bits rng (max 1 bb) in
      let g, x, y = Modular.egcd a b in
      let open Bigint in
      equal (of_nat g) (add (mul (of_nat a) x) (mul (of_nat b) y))
      && Nat.equal g (Modular.gcd a b))

let prop_crt =
  qtest ~count:100 "crt2 solves both congruences" arb_bits_pair (fun (seed, ba, bb) ->
      let rng = splitmix seed in
      (* two coprime moduli from distinct primes *)
      let p = Nat.of_int 1_000_003 and q = Nat.of_int 998_244_353 in
      let r1 = Nat.rem (gen_nat_of_bits rng (max 4 ba)) p in
      let r2 = Nat.rem (gen_nat_of_bits rng (max 4 bb)) q in
      let x = Modular.crt2 (r1, p) (r2, q) in
      Nat.equal (Nat.rem x p) r1
      && Nat.equal (Nat.rem x q) r2
      && Nat.compare x (Nat.mul p q) < 0)

(* ---------------- Montgomery ---------------- *)

(* naive square-and-multiply over Nat.rem: the reference for every
   Montgomery and comb kernel *)
let pow_ref b e m =
  let acc = ref (Nat.rem Nat.one m) and base = ref (Nat.rem b m) in
  for i = 0 to Nat.bit_length e - 1 do
    if Nat.nth_bit e i then acc := Nat.rem (Nat.mul !acc !base) m;
    base := Nat.rem (Nat.mul !base !base) m
  done;
  !acc

(* an odd modulus of exactly [bits] bits (top bit set) *)
let odd_modulus rng bits =
  let m = Nat.add (gen_nat_of_bits rng (bits - 1)) (Nat.shift_left Nat.one (bits - 1)) in
  if Nat.is_even m then Nat.succ m else m

let prop_montgomery_pow =
  qtest ~count:150 "Montgomery pow = naive square-and-multiply" arb_bits_pair
    (fun (seed, bm, be) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 3 bm) in
      let m = if Nat.is_even m then Nat.succ m else m in
      if Nat.compare m (Nat.of_int 3) < 0 then QCheck.assume_fail ()
      else begin
        match Montgomery.create m with
        | None -> QCheck.assume_fail ()
        | Some ctx ->
          let b = Nat.rem (gen_nat_of_bits rng (max 1 bm)) m in
          let e = gen_nat_of_bits rng (max 1 (be / 2)) in
          Nat.equal (Montgomery.pow ctx b e) (pow_ref b e m)
      end)

let prop_montgomery_mul =
  qtest ~count:200 "Montgomery mul = plain modular mul" arb_bits_pair
    (fun (seed, bm, bb) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 3 bm) in
      let m = if Nat.is_even m then Nat.succ m else m in
      if Nat.compare m (Nat.of_int 3) < 0 then QCheck.assume_fail ()
      else begin
        match Montgomery.create m with
        | None -> QCheck.assume_fail ()
        | Some ctx ->
          let a = Nat.rem (gen_nat_of_bits rng (max 1 bm)) m in
          let b = Nat.rem (gen_nat_of_bits rng (max 1 bb)) m in
          Nat.equal (Montgomery.mul ctx a b) (Nat.rem (Nat.mul a b) m)
      end)

let prop_unreduced_chain =
  qtest ~count:150 "mul and pow on operands >= m, chained = Nat.rem" arb_bits_pair
    (fun (seed, bm, bb) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 3 bm) in
      let m = if Nat.is_even m then Nat.succ m else m in
      if Nat.compare m (Nat.of_int 3) < 0 then QCheck.assume_fail ()
      else begin
        match Montgomery.create m with
        | None -> QCheck.assume_fail ()
        | Some ctx ->
          (* a in [m, 2m), b up to twice m's width *)
          let a = Nat.add m (Nat.rem (gen_nat_of_bits rng (max 1 bm)) m) in
          let b = gen_nat_of_bits rng ((2 * Nat.bit_length m) - (bb mod 8)) in
          let e = gen_nat_of_bits rng 64 in
          Nat.equal (Montgomery.mul ctx a b) (Nat.rem (Nat.mul a b) m)
          && Nat.equal (Montgomery.pow ctx a e) (pow_ref a e m)
          && Nat.equal
               (Montgomery.mul ctx (Montgomery.pow ctx a e) b)
               (Nat.rem (Nat.mul (pow_ref a e m) b) m)
      end)

let test_one_limb () =
  let rng = splitmix 52 in
  List.iter
    (fun m ->
      let ctx = Option.get (Montgomery.create m) in
      let operands =
        [ Nat.zero; Nat.one; Nat.pred m; m; Nat.succ m; Nat.of_int ((1 lsl 52) - 1);
          gen_nat_of_bits rng 52; gen_nat_of_bits rng 130 ]
      in
      let exps = [ Nat.zero; Nat.one; Nat.two; Nat.of_int 9; gen_nat_of_bits rng 64 ] in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.check nat
                (Printf.sprintf "%s * %s mod %s" (Nat.to_string a) (Nat.to_string b) (Nat.to_string m))
                (Nat.rem (Nat.mul a b) m) (Montgomery.mul ctx a b))
            operands;
          List.iter
            (fun e ->
              Alcotest.check nat
                (Printf.sprintf "%s^%s mod %s" (Nat.to_string a) (Nat.to_string e) (Nat.to_string m))
                (pow_ref a e m) (Montgomery.pow ctx a e))
            exps)
        operands)
    [ Nat.of_int 3; Nat.of_int 5; Nat.of_int 1_000_000_007; Nat.of_int ((1 lsl 52) - 1);
      odd_modulus rng 52 ]

let prop_of_limbs =
  qtest ~count:200 "Nat.of_limbs inverts Nat.limbs" arb_bits_pair (fun (seed, ba, _) ->
      let rng = splitmix seed in
      let a = gen_nat_of_bits rng ba in
      Nat.equal a (Nat.of_limbs (Nat.limbs a)))

let prop_fixed_base =
  qtest ~count:100 "fixed-base comb pow = generic modular pow" arb_bits_pair
    (fun (seed, bm, be) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 4 bm) in
      let m = if Nat.is_even m then Nat.succ m else m in
      if Nat.compare m (Nat.of_int 3) < 0 then QCheck.assume_fail ()
      else begin
        match Modular.mont_ctx m with
        | None -> QCheck.assume_fail ()
        | Some ctx ->
          let g = Nat.rem (gen_nat_of_bits rng (max 1 bm)) m in
          let bits = max 1 (be / 3) in
          let fb = Fixed_base.create ctx ~base:g ~max_bits:bits in
          let full = Nat.pred (Nat.shift_left Nat.one bits) in
          List.for_all
            (fun e -> Nat.equal (Fixed_base.pow fb e) (pow_ref g e m))
            [ gen_nat_of_bits rng bits; Nat.zero; Nat.one; full ]
      end)

(* Odd moduli of every limb count from 1 to 10; per comb width, the
   exponents 0, 1, 2^max_bits - 1 and one whose only nonzero digit is
   the top one. *)
let test_fixed_base_limb_counts () =
  let rng = splitmix 1024 in
  for limbs = 1 to 10 do
    let m = odd_modulus rng (52 * limbs) in
    let ctx = Option.get (Montgomery.create m) in
    let g = Nat.rem (gen_nat_of_bits rng (52 * limbs)) m in
    List.iter
      (fun max_bits ->
        let fb = Fixed_base.create ctx ~base:g ~max_bits in
        let top = 4 * ((max_bits - 1) / 4) in
        let full = Nat.pred (Nat.shift_left Nat.one max_bits) in
        List.iter
          (fun e ->
            Alcotest.check nat
              (Printf.sprintf "%d limbs, %d bits, e = %s" limbs max_bits (Nat.to_hex e))
              (pow_ref g e m) (Fixed_base.pow fb e))
          [ Nat.zero; Nat.one; full; Nat.shift_left (Nat.shift_right full top) top;
            Nat.shift_left Nat.one top; gen_nat_of_bits rng max_bits ])
      [ 1; 4; 5; 64; 97; 52 * limbs ]
  done

(* Comb, mul and pow on two domains at once, on different moduli, give
   the sequential results: no kernel shares a workspace across calls. *)
let test_two_domains () =
  let rng = splitmix 77 in
  let job bits =
    let m = odd_modulus rng bits in
    let ctx = Option.get (Modular.mont_ctx m) in
    let fb = Fixed_base.create ctx ~base:(gen_nat_of_bits rng (bits - 1)) ~max_bits:97 in
    let inputs =
      List.init 300 (fun _ ->
          (gen_nat_of_bits rng bits, gen_nat_of_bits rng bits, gen_nat_of_bits rng 97))
    in
    fun () ->
      List.map
        (fun (a, b, e) -> (Fixed_base.pow fb e, Montgomery.mul ctx a b, Montgomery.pow ctx a e))
        inputs
  in
  let run1 = job 256 and run2 = job 384 in
  let seq1 = run1 () and seq2 = run2 () in
  let d = Domain.spawn run1 in
  let par2 = run2 () in
  let par1 = Domain.join d in
  let same = List.equal (fun (a, b, c) (a', b', c') -> Nat.equal a a' && Nat.equal b b' && Nat.equal c c') in
  Alcotest.(check bool) "domain 1 = sequential" true (same seq1 par1);
  Alcotest.(check bool) "domain 2 = sequential" true (same seq2 par2)

(* Minor-heap words per call, after one warm-up call. Counted by the
   runtime, so exact on any host. *)
let words_per_call n f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The kernels allocate their workspace, tables and result, never per
   digit or per bit. A comb pow used to allocate about 1,660 words
   (arrays per nonzero digit), and a modexp about 800 words at a 64-bit
   exponent but 3,650 at a 512-bit one (a closure per reduction). *)
let test_kernel_allocation () =
  let rng = splitmix 256 in
  let m = odd_modulus rng 256 in
  let ctx = Option.get (Modular.mont_ctx m) in
  let g = gen_nat_of_bits rng 255 in
  let fb = Fixed_base.create ctx ~base:g ~max_bits:97 in
  let e97 = Nat.add (gen_nat_of_bits rng 96) (Nat.shift_left Nat.one 96) in
  let comb = words_per_call 200 (fun () -> Fixed_base.pow fb e97) in
  if comb > 200. then Alcotest.failf "comb pow allocates %.0f words per call (bound 200)" comb;
  let e64 = Nat.add (gen_nat_of_bits rng 63) (Nat.shift_left Nat.one 63) in
  let e512 = Nat.add (gen_nat_of_bits rng 511) (Nat.shift_left Nat.one 511) in
  let p64 = words_per_call 50 (fun () -> Modular.pow g e64 ~m) in
  let p512 = words_per_call 50 (fun () -> Modular.pow g e512 ~m) in
  if abs_float (p512 -. p64) > 50. then
    Alcotest.failf "modexp allocates %.0f words at a 64-bit exponent, %.0f at 512 bits" p64 p512

(* ---------------- Nat vs Nat_ref differential ----------------

   [Nat_ref] is the retained base-2^26 schoolbook implementation, kept
   verbatim as an oracle for the base-2^52 rewrite. Widths deliberately
   straddle both limb sizes' boundaries (26 and 52 bits and multiples),
   where carry and normalization bugs live. *)

let awkward_widths = [ 1; 25; 26; 27; 51; 52; 53; 103; 104; 105; 155; 156; 157; 311; 312; 313 ]

let ref_of_nat a = Nat_ref.of_bytes (Nat.to_bytes a)
let ref_eq a r = String.equal (Nat.to_string a) (Nat_ref.to_string r)

let test_differential_ops () =
  let rng = splitmix 2026 in
  List.iter
    (fun wa ->
      List.iter
        (fun wb ->
          for _ = 1 to 2 do
            let a = gen_nat_of_bits rng wa and b = gen_nat_of_bits rng wb in
            let ra = ref_of_nat a and rb = ref_of_nat b in
            let chk name x rx =
              Alcotest.(check bool)
                (Printf.sprintf "%s at %dx%d bits" name wa wb)
                true (ref_eq x rx)
            in
            chk "add" (Nat.add a b) (Nat_ref.add ra rb);
            chk "mul" (Nat.mul a b) (Nat_ref.mul ra rb);
            if Nat.compare a b >= 0 then chk "sub" (Nat.sub a b) (Nat_ref.sub ra rb)
            else chk "sub" (Nat.sub b a) (Nat_ref.sub rb ra);
            if not (Nat.is_zero b) then begin
              let q, r = Nat.divmod a b and rq, rr = Nat_ref.divmod ra rb in
              chk "div" q rq;
              chk "rem" r rr
            end;
            let sh = wb land 63 in
            chk "shl" (Nat.shift_left a sh) (Nat_ref.shift_left ra sh);
            chk "shr" (Nat.shift_right a sh) (Nat_ref.shift_right ra sh)
          done)
        awkward_widths)
    awkward_widths

let test_differential_divisors () =
  (* divisors just past a base-2^26 limb and with the top bit set: the
     divmod normalization paths *)
  let rng = splitmix 31337 in
  let divisors =
    List.map Nat.of_string
      [ "67108864" (* 2^26 *); "67108865"; "1099511627777" (* 2^40+1 *);
        "4503599627370496" (* 2^52 *); "4503599627370497";
        "170141183460469231731687303715884105727" (* 2^127-1 *) ]
  in
  List.iter
    (fun d ->
      let rd = ref_of_nat d in
      List.iter
        (fun wa ->
          let a = gen_nat_of_bits rng wa in
          (* force the top bit so the width is exact *)
          let a = Nat.add a (Nat.shift_left Nat.one (wa - 1)) in
          let ra = ref_of_nat a in
          let q, r = Nat.divmod a d and rq, rr = Nat_ref.divmod ra rd in
          Alcotest.(check bool) "q" true (ref_eq q rq);
          Alcotest.(check bool) "r" true (ref_eq r rr))
        [ 53; 104; 157; 313 ])
    divisors

let test_differential_pow () =
  let rng = splitmix 99 in
  List.iter
    (fun w ->
      let a = gen_nat_of_bits rng w in
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "pow %d^%d" w k)
            true
            (ref_eq (Nat.pow a k) (Nat_ref.pow (ref_of_nat a) k)))
        [ 0; 1; 2; 3; 7 ])
    [ 1; 26; 52; 53; 104 ]

(* [Nat.to_bytes] against the reference's bit-by-bit serialization,
   reached through decimal so that neither side feeds the other: zero,
   one, and a random value, a power of two and an all-ones value at
   every bit length around each 52-bit limb boundary up to 768 bits.
   [Proto.Codec.nat]'s fixed-width field must equal the zero-padded
   form and refuse a field one byte too narrow. *)
let test_differential_bytes () =
  let rng = splitmix 768 in
  let widths = 0 :: 768 :: List.concat_map (fun k -> [ (52 * k) - 1; 52 * k; (52 * k) + 1 ]) (List.init 14 succ) in
  let values w =
    if w = 0 then [ Nat.zero ]
    else
      let top = Nat.shift_left Nat.one (w - 1) in
      [ top; Nat.pred (Nat.shift_left Nat.one w); Nat.add top (gen_nat_of_bits rng (w - 1)) ]
  in
  List.iter
    (fun w ->
      List.iter
        (fun x ->
          let want = Nat_ref.to_bytes (Nat_ref.of_string (Nat.to_string x)) in
          let len = String.length want in
          Alcotest.(check string) (Printf.sprintf "to_bytes at %d bits" w) want (Nat.to_bytes x);
          List.iter
            (fun pad ->
              let field = Proto.Codec.nat (len + pad) Fun.id Fun.id in
              Alcotest.(check string)
                (Printf.sprintf "%d-byte field at %d bits" (len + pad) w)
                (String.make pad '\000' ^ want)
                (Proto.Codec.encode field x))
            [ 0; 1; 7 ];
          if len > 0 then
            Alcotest.check_raises
              (Printf.sprintf "%d-byte field refuses %d bits" (len - 1) w)
              (Invalid_argument "Codec: value wider than field")
              (fun () -> ignore (Proto.Codec.encode (Proto.Codec.nat (len - 1) Fun.id Fun.id) x)))
        (values w))
    widths;
  Alcotest.(check string) "one" "\001" (Nat.to_bytes Nat.one)

(* ---------------- multi_pow / inv_many properties ---------------- *)

let prop_multi_pow =
  qtest ~count:80 "multi_pow = product of pows" arb_bits_pair
    (fun (seed, bm, be) ->
      let rng = splitmix seed in
      let m = gen_nat_of_bits rng (max 4 bm) in
      let m = if Nat.is_even m then Nat.succ m else m in
      if Nat.compare m (Nat.of_int 3) < 0 then QCheck.assume_fail ()
      else begin
        let nb = 1 + (seed mod 4) in
        let pairs =
          List.init nb (fun i ->
              ( Nat.rem (gen_nat_of_bits rng (max 1 bm)) m,
                gen_nat_of_bits rng (max 1 ((be / 2) + (17 * i))) ))
        in
        let expect =
          List.fold_left
            (fun acc (b, e) -> Modular.mul acc (Modular.pow b e ~m) ~m)
            (Nat.rem Nat.one m) pairs
        in
        Nat.equal (Modular.multi_pow pairs ~m) expect
      end)

let prop_inv_many =
  qtest ~count:80 "inv_many = pointwise inv" arb_bits_pair
    (fun (seed, bm, _) ->
      let rng = splitmix seed in
      (* prime modulus: everything nonzero is invertible *)
      let m = Nat.of_string "170141183460469231731687303715884105727" in
      let nb = seed mod 6 in
      let xs =
        List.init nb (fun _ ->
            let x = Nat.rem (gen_nat_of_bits rng (max 1 bm)) m in
            if Nat.is_zero x then Nat.one else x)
      in
      List.equal Nat.equal
        (Modular.inv_many xs ~m)
        (List.map (fun x -> Modular.inv x ~m) xs))

(* ---------------- Fixed_base comb cache (LRU) ---------------- *)

let test_fixed_base_cache () =
  let m = Nat.of_string "1000000007" in
  Fixed_base.reset ();
  Fixed_base.set_capacity 4;
  Fun.protect ~finally:Fixed_base.reset (fun () ->
      for i = 2 to 11 do
        ignore (Fixed_base.cached ~base:(Nat.of_int i) ~m ~max_bits:16)
      done;
      Alcotest.(check int) "bounded at capacity" 4 (Fixed_base.cached_count ());
      (* an evicted base is rebuilt on demand and still correct *)
      (match Fixed_base.cached ~base:(Nat.of_int 2) ~m ~max_bits:16 with
      | None -> Alcotest.fail "comb expected for odd modulus"
      | Some fb ->
        let e = Nat.of_int 54321 in
        Alcotest.check nat "rebuilt comb correct"
          (Modular.pow (Nat.of_int 2) e ~m)
          (Fixed_base.pow fb e));
      (* a power's comb is its own entry beside its base's *)
      (match Fixed_base.cached_power ~base:(Nat.of_int 2) ~exp:(Nat.of_int 5) ~m ~max_bits:16 with
      | None -> Alcotest.fail "comb expected for odd modulus"
      | Some fb ->
        let e = Nat.of_int 54321 in
        Alcotest.check nat "power comb = (base^exp)^e"
          (Modular.pow (Modular.pow (Nat.of_int 2) (Nat.of_int 5) ~m) e ~m)
          (Fixed_base.pow fb e));
      (* a build counts no op, derived power included, so the op counts
         of a run do not depend on what the cache held before it *)
      let c = Obs.Collector.create () in
      let prev = Obs.is_enabled () in
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled prev)
        (fun () ->
          Obs.with_collector c (fun () ->
              ignore
                (Fixed_base.cached_power ~base:(Nat.of_int 3) ~exp:(Nat.of_int 65537) ~m
                   ~max_bits:16)));
      Alcotest.(check bool) "a power comb build counts nothing" true
        (Obs.Metrics.is_zero (Obs.Collector.metrics c));
      Alcotest.(check bool) "even modulus has no ctx" true
        (Fixed_base.cached ~base:(Nat.of_int 3) ~m:(Nat.of_int 100) ~max_bits:8 = None);
      Alcotest.check_raises "capacity must be positive"
        (Invalid_argument "Fixed_base.set_capacity") (fun () ->
          Fixed_base.set_capacity 0));
  Alcotest.(check int) "reset empties" 0 (Fixed_base.cached_count ())

let test_montgomery_edges () =
  let m = Nat.of_int 2145386377 (* odd *) in
  let ctx = Option.get (Montgomery.create m) in
  Alcotest.check nat "b^0 = 1" Nat.one (Montgomery.pow ctx (Nat.of_int 17) Nat.zero);
  Alcotest.check nat "0^e = 0" Nat.zero (Montgomery.pow ctx Nat.zero (Nat.of_int 5));
  Alcotest.check nat "1^e = 1" Nat.one (Montgomery.pow ctx Nat.one (Nat.of_int 99));
  Alcotest.(check bool) "even modulus rejected" true (Montgomery.create (Nat.of_int 10) = None)

(* ---------------- Prime ---------------- *)

let rand_below_of_rng rng bound =
  (* uniform-enough sampler for tests *)
  let bits = Nat.bit_length bound in
  let rec go () =
    let c = gen_nat_of_bits rng bits in
    if Nat.compare c bound < 0 then c else go ()
  in
  if Nat.is_zero bound then Nat.zero else go ()

let test_small_primes () =
  Alcotest.(check int) "count below 1000" 168 (List.length Prime.small_primes);
  Alcotest.(check bool) "2 is first" true (List.hd Prime.small_primes = 2);
  Alcotest.(check bool) "997 last" true (List.mem 997 Prime.small_primes)

let test_is_prime_known () =
  let rng = splitmix 42 in
  let rand_below = rand_below_of_rng rng in
  let check_prime s expected =
    Alcotest.(check bool) s expected (Prime.is_probable_prime ~rand_below (Nat.of_string s))
  in
  check_prime "2" true;
  check_prime "3" true;
  check_prime "4" false;
  check_prime "1" false;
  check_prime "0" false;
  check_prime "1000000007" true;
  check_prime "1000000009" true;
  check_prime "1000000011" false;
  (* Mersenne prime 2^127 - 1 *)
  check_prime "170141183460469231731687303715884105727" true;
  (* a Carmichael number: 561 = 3 * 11 * 17 *)
  check_prime "561" false;
  (* big Carmichael: 1590231231043178376951698401 *)
  check_prime "1590231231043178376951698401" false;
  (* RSA-ish semiprime *)
  check_prime "169743212279150057724263148660381155969" false

let test_gen_prime () =
  let rng = splitmix 7 in
  let rand_below = rand_below_of_rng rng in
  List.iter
    (fun bits ->
      let p = Prime.gen_prime ~bits ~rand_below () in
      Alcotest.(check int) (Printf.sprintf "%d-bit width" bits) bits (Nat.bit_length p);
      Alcotest.(check bool) "is prime" true (Prime.is_probable_prime ~rand_below p))
    [ 16; 32; 64; 128 ]

let suite =
  [ ( "nat-unit",
      [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
        Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
        Alcotest.test_case "add known" `Quick test_add_known;
        Alcotest.test_case "mul known" `Quick test_mul_known;
        Alcotest.test_case "sub known" `Quick test_sub_known;
        Alcotest.test_case "divmod known" `Quick test_divmod_known;
        Alcotest.test_case "shifts" `Quick test_shift;
        Alcotest.test_case "bit_length" `Quick test_bit_length;
        Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
        Alcotest.test_case "hex" `Quick test_hex;
        Alcotest.test_case "pow" `Quick test_pow
      ] );
    ( "nat-prop",
      [ prop_add_matches_int;
        prop_mul_matches_int;
        prop_divmod_matches_int;
        prop_divmod_identity;
        prop_mul_commutes;
        prop_karatsuba_matches_school;
        prop_sub_add_inverse;
        prop_bytes_roundtrip;
        prop_compare_total_order
      ] );
    ( "bigint",
      [ Alcotest.test_case "basic ops" `Quick test_bigint_basic;
        Alcotest.test_case "euclidean division" `Quick test_bigint_euclid;
        prop_bigint_ring;
        prop_bigint_mod_nat
      ] );
    ( "modular",
      [ Alcotest.test_case "modpow known" `Quick test_modpow_known;
        Alcotest.test_case "modinv known" `Quick test_modinv_known;
        Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
        Alcotest.test_case "crt small" `Quick test_crt;
        prop_fermat;
        prop_modinv;
        prop_egcd;
        prop_crt
      ] );
    ( "montgomery",
      [ prop_montgomery_pow; prop_montgomery_mul; prop_unreduced_chain; prop_of_limbs;
        prop_fixed_base;
        prop_multi_pow;
        prop_inv_many;
        Alcotest.test_case "edge cases" `Quick test_montgomery_edges;
        Alcotest.test_case "one-limb moduli" `Quick test_one_limb;
        Alcotest.test_case "fixed-base comb cache" `Quick test_fixed_base_cache;
        Alcotest.test_case "fixed-base comb at 1-10 limbs" `Quick test_fixed_base_limb_counts;
        Alcotest.test_case "kernels on two domains" `Quick test_two_domains;
        Alcotest.test_case "kernel allocation per call" `Quick test_kernel_allocation
      ] );
    ( "nat-differential",
      [ Alcotest.test_case "ops vs base-2^26 reference" `Quick test_differential_ops;
        Alcotest.test_case "awkward divisors" `Quick test_differential_divisors;
        Alcotest.test_case "pow" `Quick test_differential_pow;
        Alcotest.test_case "to_bytes vs bit-by-bit reference" `Quick test_differential_bytes
      ] );
    ( "prime",
      [ Alcotest.test_case "small primes" `Quick test_small_primes;
        Alcotest.test_case "known primes/composites" `Quick test_is_prime_known;
        Alcotest.test_case "gen_prime widths" `Quick test_gen_prime
      ] )
  ]

let () = Alcotest.run "bignum" suite
