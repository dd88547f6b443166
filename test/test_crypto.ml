(* Tests for the crypto substrate: FIPS/RFC test vectors for SHA-256 and
   HMAC, determinism/uniformity checks for the DRBG and RNG, and the
   homomorphic identities that the SecTopK protocols rely on for
   Paillier, and Damgård-Jurik's round trip, scalar homomorphism and CRT
   decryption. *)

open Bignum
open Crypto

let nat = Alcotest.testable Nat.pp Nat.equal

(* One shared small key pair: keygen is the slow part, tests share it. *)
let rng = Rng.create ~seed:"test_crypto"
let pub, sk = Paillier.keygen rng ~bits:128
let djpub, djsk_opt = Damgard_jurik.of_paillier pub (Some sk)
let djsk = Option.get djsk_opt

(* ---------------- SHA-256 ---------------- *)

let test_sha256_vectors () =
  let check msg expected = Alcotest.(check string) ("sha256 of " ^ msg) expected (Sha256.digest_hex msg) in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check (String.make 1000000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha256_streaming () =
  (* updating in odd-sized chunks must match the one-shot digest *)
  let msg = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let chunk = ref 1 in
  while !pos < String.length msg do
    let len = min !chunk (String.length msg - !pos) in
    Sha256.update ctx (String.sub msg !pos len);
    pos := !pos + len;
    chunk := (!chunk * 7 mod 97) + 1
  done;
  Alcotest.(check string) "streaming = one-shot" (Sha256.digest_hex msg) (Sha256.hex (Sha256.finalize ctx))

(* ---------------- HMAC (RFC 4231) ---------------- *)

let test_hmac_vectors () =
  let check name ~key msg expected = Alcotest.(check string) name expected (Hmac.mac_hex ~key msg) in
  check "rfc4231 case 1" ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check "rfc4231 case 2" ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check "rfc4231 case 3" ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* key longer than a block *)
  check "rfc4231 case 6" ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

(* ---------------- DRBG / RNG ---------------- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"seed" and b = Drbg.create ~seed:"seed" in
  Alcotest.(check string) "same seed, same stream" (Drbg.generate a 100) (Drbg.generate b 100);
  let c = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seeds differ" false (Drbg.generate c 100 = Drbg.generate (Drbg.create ~seed:"seed") 100)

let test_drbg_no_repeat () =
  let d = Drbg.create ~seed:"x" in
  let a = Drbg.generate d 32 and b = Drbg.generate d 32 in
  Alcotest.(check bool) "stream advances" false (a = b)

let test_rng_bounds () =
  let r = Rng.create ~seed:"bounds" in
  for _ = 1 to 200 do
    let bound = 1 + Rng.int_below r 1000 in
    let v = Rng.int_below r bound in
    Alcotest.(check bool) "int_below in range" true (v >= 0 && v < bound)
  done;
  let m = Nat.of_string "123456789123456789" in
  for _ = 1 to 50 do
    let v = Rng.nat_below r m in
    Alcotest.(check bool) "nat_below in range" true (Nat.compare v m < 0)
  done

let test_rng_unit_mod () =
  let r = Rng.create ~seed:"unit" in
  let n = Nat.of_int (15 * 77) in
  for _ = 1 to 50 do
    let u = Rng.unit_mod r n in
    Alcotest.check nat "coprime" Nat.one (Modular.gcd u n)
  done

let test_rng_shuffle_perm () =
  let r = Rng.create ~seed:"shuffle" in
  let arr = Array.init 20 (fun i -> i) in
  let orig = Array.copy arr in
  let perm = Rng.shuffle r arr in
  (* perm maps new index -> old index *)
  Array.iteri (fun i p -> Alcotest.(check int) "perm consistent" orig.(p) arr.(i)) perm;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "same multiset" true (sorted = orig)

let test_rng_fork_independent () =
  let r = Rng.create ~seed:"parent" in
  let f1 = Rng.fork r ~label:"a" in
  let x = Rng.bytes f1 16 in
  let r' = Rng.create ~seed:"parent" in
  let f1' = Rng.fork r' ~label:"a" in
  Alcotest.(check string) "fork deterministic" x (Rng.bytes f1' 16)

(* A copy continues its original's stream from wherever it stands. The
   reference is a generator replayed from the seed, so draws on the
   copy must leave the original's stream unchanged and the other way
   round. *)
let check_copy ~create ~draw ~copy ~disturb cases =
  List.iter
    (fun (name, draws) ->
      let at () =
        let g = create () in
        List.iter (fun n -> ignore (draw g n)) draws;
        g
      in
      let next = draw (at ()) 1000 in
      let g = at () in
      let c = copy g and c' = copy g in
      disturb c';
      Alcotest.(check string) (name ^ ": original after draws on a copy") next (draw g 1000);
      Alcotest.(check string) (name ^ ": copy after draws on the original") next (draw c 1000))
    cases

let test_rng_copy () =
  check_copy
    ~create:(fun () -> Rng.create ~seed:"copy")
    ~draw:Rng.bytes ~copy:Rng.copy
    ~disturb:(fun g -> ignore (Rng.bytes g 517))
    [ ("fresh", []);
      ("mid-buffer, after an odd-sized draw", [ 13 ]);
      (* past 32 + 64 + 128 bytes the refill size is [max_chunk] *)
      ("refill size at its maximum", [ 7; 300; 901 ]) ]

let test_drbg_copy () =
  check_copy
    ~create:(fun () -> Drbg.create ~seed:"copy")
    ~draw:Drbg.generate ~copy:Drbg.copy
    ~disturb:(fun d ->
      ignore (Drbg.generate d 517);
      Drbg.reseed d "more entropy";
      ignore (Drbg.generate d 33))
    [ ("fresh", []); ("after odd-sized draws", [ 13; 64; 1 ]) ]

(* ---------------- PRF / PRP ---------------- *)

let test_prf_stable_and_keyed () =
  let m = Nat.of_string "1000003" in
  let a = Prf.to_nat_mod ~key:"k1" "object-42" ~m in
  let b = Prf.to_nat_mod ~key:"k1" "object-42" ~m in
  let c = Prf.to_nat_mod ~key:"k2" "object-42" ~m in
  Alcotest.check nat "deterministic" a b;
  Alcotest.(check bool) "key matters" false (Nat.equal a c);
  Alcotest.(check bool) "in range" true (Nat.compare a m < 0)

let test_prf_to_index () =
  for i = 0 to 100 do
    let v = Prf.to_index ~key:"k" (string_of_int i) ~buckets:23 in
    Alcotest.(check bool) "bucket range" true (v >= 0 && v < 23)
  done

let test_prp_bijection () =
  let p = Prp.create ~key:"prp-key" ~domain:100 in
  let seen = Array.make 100 false in
  for i = 0 to 99 do
    let v = Prp.apply p i in
    Alcotest.(check bool) "in domain" true (v >= 0 && v < 100);
    Alcotest.(check bool) "injective" false seen.(v);
    seen.(v) <- true;
    Alcotest.(check int) "invert" i (Prp.invert p v)
  done;
  let p2 = Prp.create ~key:"prp-key" ~domain:100 in
  Alcotest.(check bool) "keyed deterministic" true
    (List.for_all (fun i -> Prp.apply p i = Prp.apply p2 i) (List.init 100 Fun.id))

(* ---------------- byte paths ---------------- *)

(* [n] bytes that differ by length and position *)
let bytes_of n salt = String.init n (fun i -> Char.chr (((i * 7) + (n * salt)) land 0xff))

(* SHA-256 at every length across both padding cases; HMAC with empty,
   short, block-sized and longer-than-a-block keys on messages around the
   pad boundary; DRBG outputs across the 32-byte block edges with a
   reseed between them; the generator's draws across refills, its
   integer draws and a fork; and PRF outputs whose expansion runs past
   ten counter blocks. Integers enter as decimal, so the digest does
   not lean on the byte serialization it helps to pin. *)
let golden_byte_paths_sha256 = "bd1ea11ce2bce642b99885653640e7cc3ed5e8d8911a2600461125d3cf75776b"

let test_golden_byte_paths () =
  let h = Sha256.init () in
  let add s =
    Sha256.update h (Printf.sprintf "%d:" (String.length s));
    Sha256.update h s
  in
  let add_nat x = add (Nat.to_string x) in
  for n = 0 to 130 do
    add (Sha256.digest (bytes_of n 1))
  done;
  add (Sha256.digest (bytes_of 1000 1));
  List.iter
    (fun kl ->
      let key = bytes_of kl 3 in
      List.iter (fun ml -> add (Hmac.mac ~key (bytes_of ml 5))) [ 0; 1; 32; 55; 56; 63; 64; 65; 200 ])
    [ 0; 20; 32; 64; 65; 131 ];
  let d = Drbg.create ~seed:"golden" in
  List.iteri
    (fun i n ->
      add (Drbg.generate d n);
      Drbg.reseed d (string_of_int i))
    [ 0; 1; 31; 32; 33; 64; 255; 256; 257; 1000 ];
  let r = Rng.create ~seed:"golden" in
  List.iter (fun n -> add (Rng.bytes r n)) [ 1; 12; 7; 32; 12; 100; 3; 256; 12; 300; 5 ];
  add_nat (Rng.nat_bits r 96);
  add_nat (Rng.nat_below r (Nat.of_string "123456789123456789123456789"));
  add_nat (Rng.unit_mod r pub.Paillier.n);
  let f = Rng.fork r ~label:"golden" in
  List.iter (fun n -> add (Rng.bytes f n)) [ 12; 12; 12; 12; 40 ];
  add (Rng.bytes r 12);
  let big = Nat.add (Nat.shift_left Nat.one 1299) (Nat.of_int 12345) in
  List.iter
    (fun key ->
      List.iter
        (fun msg ->
          List.iter
            (fun m -> add_nat (Prf.to_nat_mod ~key msg ~m))
            [ Nat.of_int 1_000_003; pub.Paillier.n; big ];
          List.iter
            (fun buckets -> add (string_of_int (Prf.to_index ~key msg ~buckets)))
            [ 1; 23; 1000 ])
        [ ""; "object-42"; bytes_of 100 7 ])
    [ "k"; bytes_of 32 9; bytes_of 100 11 ];
  Alcotest.(check string) "byte-path digest" golden_byte_paths_sha256 (Sha256.hex (Sha256.finalize h))

(* Each domain hashes on its own state: two domains running DRBG, HMAC,
   SHA-256 and PRF streams at once produce what each produces alone. *)
let test_hash_two_domains () =
  let stream seed () =
    let d = Drbg.create ~seed in
    List.init 150 (fun i ->
        let s = Drbg.generate d (1 + (i * 37 mod 300)) in
        let ctx = Sha256.init () in
        Sha256.update ctx s;
        Sha256.update ctx (string_of_int i);
        let m = Prf.to_nat_mod ~key:seed s ~m:pub.Paillier.n in
        Hmac.mac ~key:(bytes_of (i mod 80) 3) s ^ Sha256.finalize ctx ^ Nat.to_string m)
  in
  let seq_a = stream "a" () and seq_b = stream "b" () in
  let d = Domain.spawn (stream "b") in
  let par_a = stream "a" () in
  let par_b = Domain.join d in
  Alcotest.(check (list string)) "domain a" seq_a par_a;
  Alcotest.(check (list string)) "domain b" seq_b par_b

(* ---------------- Paillier ---------------- *)

let test_paillier_roundtrip () =
  List.iter
    (fun m ->
      let m = Nat.of_int m in
      Alcotest.check nat "dec(enc(m)) = m" m (Paillier.decrypt sk (Paillier.encrypt rng pub m)))
    [ 0; 1; 42; 1_000_000_007 ];
  (* a plaintext near n *)
  let near = Nat.pred pub.Paillier.n in
  Alcotest.check nat "near n" near (Paillier.decrypt sk (Paillier.encrypt rng pub near))

let test_paillier_probabilistic () =
  let c1 = Paillier.encrypt rng pub (Nat.of_int 5) in
  let c2 = Paillier.encrypt rng pub (Nat.of_int 5) in
  Alcotest.(check bool) "distinct ciphertexts" false (Paillier.equal_ct c1 c2)

let test_paillier_homomorphic_add () =
  let a = Nat.of_int 123456 and b = Nat.of_int 654321 in
  let c = Paillier.add pub (Paillier.encrypt rng pub a) (Paillier.encrypt rng pub b) in
  Alcotest.check nat "enc(a)*enc(b) = enc(a+b)" (Nat.add a b) (Paillier.decrypt sk c)

let test_paillier_add_wraps () =
  let n = pub.Paillier.n in
  let a = Nat.pred n in
  let c = Paillier.add pub (Paillier.encrypt rng pub a) (Paillier.encrypt rng pub Nat.two) in
  Alcotest.check nat "wraps mod n" Nat.one (Paillier.decrypt sk c)

let test_paillier_scalar_mul () =
  let a = Nat.of_int 1111 in
  let c = Paillier.scalar_mul pub (Paillier.encrypt rng pub a) (Nat.of_int 77) in
  Alcotest.check nat "enc(a)^k = enc(ka)" (Nat.of_int (1111 * 77)) (Paillier.decrypt sk c)

let test_paillier_neg_sub () =
  let a = Nat.of_int 500 and b = Nat.of_int 123 in
  let d = Paillier.sub pub (Paillier.encrypt rng pub a) (Paillier.encrypt rng pub b) in
  Alcotest.check nat "sub" (Nat.of_int 377) (Paillier.decrypt sk d);
  let neg = Paillier.neg pub (Paillier.encrypt rng pub b) in
  Alcotest.(check string) "signed decode" "-123" (Bigint.to_string (Paillier.decrypt_signed sk neg))

let test_paillier_rerandomize () =
  let c = Paillier.encrypt rng pub (Nat.of_int 99) in
  let c' = Paillier.rerandomize rng pub c in
  Alcotest.(check bool) "fresh ciphertext" false (Paillier.equal_ct c c');
  Alcotest.check nat "same plaintext" (Nat.of_int 99) (Paillier.decrypt sk c')

let test_paillier_trivial () =
  Alcotest.check nat "trivial decrypts" (Nat.of_int 7) (Paillier.decrypt sk (Paillier.trivial pub (Nat.of_int 7)))

let prop_paillier_add =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"paillier additive homomorphism (random)"
       QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
       (fun (a, b) ->
         let c = Paillier.add pub (Paillier.encrypt_int rng pub a) (Paillier.encrypt_int rng pub b) in
         Nat.to_int (Paillier.decrypt sk c) = a + b))

let prop_paillier_scalar =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"paillier scalar homomorphism (random)"
       QCheck.(pair (int_bound 100_000) (int_bound 1000))
       (fun (a, k) ->
         let c = Paillier.scalar_mul pub (Paillier.encrypt_int rng pub a) (Nat.of_int k) in
         Nat.to_int (Paillier.decrypt sk c) = a * k))

(* ---------------- Damgård-Jurik ---------------- *)

let test_dj_roundtrip () =
  List.iter
    (fun m ->
      let m = Nat.of_string m in
      Alcotest.check nat ("dj roundtrip " ^ Nat.to_string m) m
        (Damgard_jurik.decrypt djsk (Damgard_jurik.encrypt rng djpub m)))
    [ "0"; "1"; "123456789" ];
  (* plaintexts >= n exercise the second digit of the decryption *)
  let big = Nat.pred djpub.Damgard_jurik.n2 in
  Alcotest.check nat "dj near n^2" big (Damgard_jurik.decrypt djsk (Damgard_jurik.encrypt rng djpub big));
  let mid = Nat.add djpub.Damgard_jurik.n (Nat.of_int 12345) in
  Alcotest.check nat "dj n + k" mid (Damgard_jurik.decrypt djsk (Damgard_jurik.encrypt rng djpub mid))

let test_dj_homomorphic () =
  let a = Nat.of_int 11111 in
  let s = Damgard_jurik.scalar_mul djpub (Damgard_jurik.encrypt rng djpub a) (Nat.of_int 9) in
  Alcotest.check nat "dj scalar" (Nat.of_int (11111 * 9)) (Damgard_jurik.decrypt djsk s)

(* [encrypt_neg_with] must be the negation of [encrypt_with] from the
   same draw, bit for bit: c^(n-1) mod n^2, under shortened and textbook
   noise, at the plaintext edges and at the draws 1, 2^96 and random. *)
let neg_draws pub =
  [ ("1", Nat.one); ("2^96", Nat.shift_left Nat.one 96); ("random", Paillier.draw_noise rng pub) ]

let test_paillier_encrypt_neg_with () =
  List.iter
    (fun (policy, pub) ->
      let n = pub.Paillier.n and n2 = pub.Paillier.n2 in
      List.iter
        (fun (draw_name, draw) ->
          List.iter
            (fun (m_name, m) ->
              let reference =
                Modular.pow
                  (Paillier.to_nat (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub draw) m))
                  (Nat.pred n) ~m:n2
              in
              Alcotest.check nat
                (Printf.sprintf "%s, draw %s, m = %s" policy draw_name m_name)
                reference
                (Paillier.to_nat (Paillier.encrypt_neg_with pub ~draw m)))
            [ ("0", Nat.zero); ("1", Nat.one); ("n-1", Nat.pred n); ("random", Rng.nat_below rng n) ])
        (neg_draws pub))
    [ ("rand_bits 96", Paillier.with_rand_bits pub (Some 96)); ("textbook", Paillier.with_rand_bits pub None) ]

(* ---------------- CRT decryption vs textbook formulas ----------------

   [Paillier.decrypt] and [Damgard_jurik.decrypt] run over the prime-power
   factors with half-size exponents; these tests pin them to the direct
   lambda/d exponentiation mod n^2 / n^3 they replace. *)

let test_paillier_crt_matches_classic () =
  let _, _, lambda = Paillier.secret_params sk in
  let n = pub.Paillier.n and n2 = pub.Paillier.n2 in
  let mu = Modular.inv (Nat.rem lambda n) ~m:n in
  let classic c =
    let u = Modular.pow (Paillier.to_nat c) lambda ~m:n2 in
    Modular.mul (Nat.div (Nat.pred u) n) mu ~m:n
  in
  for i = 0 to 49 do
    let m = Rng.nat_below rng n in
    let c = Paillier.encrypt rng pub m in
    Alcotest.check nat (Printf.sprintf "crt = classic #%d" i) (classic c) (Paillier.decrypt sk c)
  done;
  List.iter
    (fun m ->
      let c = Paillier.trivial pub m in
      Alcotest.check nat "crt = classic on trivial cts" (classic c) (Paillier.decrypt sk c))
    [ Nat.zero; Nat.one; Nat.pred n ]

let test_paillier_shortened_noise_comb () =
  (* shortened-noise keys draw noise from the fixed-base comb *)
  let pub' = Paillier.with_rand_bits pub (Some 64) in
  for _ = 1 to 20 do
    let m = Rng.nat_below rng pub.Paillier.n in
    let c = Paillier.encrypt rng pub' m in
    Alcotest.check nat "comb-noise roundtrip" m (Paillier.decrypt sk c);
    let c' = Paillier.rerandomize rng pub' c in
    Alcotest.(check bool) "rerandomized fresh" false (Paillier.equal_ct c c');
    Alcotest.check nat "rerandomize preserves" m (Paillier.decrypt sk c')
  done

(* The textbook decryption c^d mod n^3 with d = 1 mod n^2, d = 0 mod
   lambda, read off digit by digit: the reference the DJN CRT halves
   must match. *)
let dj_classic pub sk c =
  let _, _, lambda = Paillier.secret_params sk in
  let n = pub.Damgard_jurik.n and n2 = pub.Damgard_jurik.n2 and n3 = pub.Damgard_jurik.n3 in
  let d = Modular.crt2 (Nat.one, n2) (Nat.zero, lambda) in
  let u = Modular.pow (c : Damgard_jurik.ciphertext :> Nat.t) d ~m:n3 in
  let t = Nat.rem (Nat.div (Nat.pred u) n) n2 in
  let m0 = Nat.rem t n in
  let binom =
    Nat.rem (Nat.shift_right (Nat.mul m0 (if Nat.is_zero m0 then Nat.zero else Nat.pred m0)) 1) n
  in
  let hi = Nat.div (Nat.sub t m0) n in
  let m1 = Modular.sub (Nat.rem hi n) binom ~m:n in
  Nat.add m0 (Nat.mul n m1)

let check_dj_crt label rng pub sk =
  let djpub, djsk = Damgard_jurik.of_paillier pub (Some sk) in
  let djsk = Option.get djsk in
  let n = djpub.Damgard_jurik.n and n2 = djpub.Damgard_jurik.n2 in
  let check what m c =
    let got = Damgard_jurik.decrypt djsk c in
    Alcotest.check nat (Printf.sprintf "%s: %s = classic" label what) (dj_classic djpub sk c) got;
    Alcotest.check nat (Printf.sprintf "%s: %s = m" label what) m got
  in
  for i = 0 to 19 do
    let m = Rng.nat_below rng n2 in
    check (Printf.sprintf "random #%d" i) m (Damgard_jurik.encrypt rng djpub m)
  done;
  List.iter
    (fun (name, m) -> check (name ^ " encrypted") m (Damgard_jurik.encrypt rng djpub m))
    [ ("0", Nat.zero); ("1", Nat.one); ("n-1", Nat.pred n); ("n", n); ("n+1", Nat.succ n);
      ("n^2-1", Nat.pred n2) ]

let test_dj_crt_matches_classic () =
  check_dj_crt "128-bit" rng pub sk;
  let rng256 = Rng.create ~seed:"test_crypto 256" in
  let pub256, sk256 = Paillier.keygen ~rand_bits:96 rng256 ~bits:256 in
  check_dj_crt "256-bit" rng256 pub256 sk256

(* Ciphertexts that p or q divides are not units; no encryption is one.
   Decryption names the error rather than returning a wrong plaintext or
   failing inside Nat. *)
let test_non_unit_ciphertexts () =
  let p, q, _ = Paillier.secret_params sk in
  List.iter
    (fun (name, c) ->
      Alcotest.check_raises name
        (Invalid_argument "Paillier.decrypt: ciphertext is not a unit") (fun () ->
          ignore (Paillier.decrypt sk (Paillier.of_nat pub c))))
    [ ("0", Nat.zero); ("p", p); ("q", q); ("3p", Nat.mul_int p 3) ]

let test_ciphertext_sizes () =
  Alcotest.(check bool) "paillier ct is 2x plaintext width" true
    (Paillier.ciphertext_bytes pub >= 2 * Paillier.plaintext_bytes pub - 1)

(* a precomputed noise factor applied with one modular multiplication *)
let test_paillier_rerandomize_with () =
  let m = Nat.of_int 42 in
  let c = Paillier.encrypt rng pub m in
  let c' = Paillier.rerandomize_with pub ~noise:(Paillier.noise rng pub) c in
  Alcotest.(check bool) "ciphertext changed" false (Paillier.equal_ct c c');
  Alcotest.check nat "plaintext preserved" m (Paillier.decrypt sk c')

let suite =
  [ ( "sha256",
      [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "streaming" `Quick test_sha256_streaming
      ] );
    ("hmac", [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors ]);
    ( "drbg-rng",
      [ Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
        Alcotest.test_case "stream advances" `Quick test_drbg_no_repeat;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "unit_mod coprime" `Quick test_rng_unit_mod;
        Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_perm;
        Alcotest.test_case "fork deterministic" `Quick test_rng_fork_independent;
        Alcotest.test_case "Rng.copy" `Quick test_rng_copy;
        Alcotest.test_case "Drbg.copy" `Quick test_drbg_copy
      ] );
    ( "prf-prp",
      [ Alcotest.test_case "prf stable and keyed" `Quick test_prf_stable_and_keyed;
        Alcotest.test_case "prf index range" `Quick test_prf_to_index;
        Alcotest.test_case "prp bijection" `Quick test_prp_bijection
      ] );
    ( "byte-paths",
      [ Alcotest.test_case "golden byte-path digest" `Quick test_golden_byte_paths;
        Alcotest.test_case "hashing on two domains" `Quick test_hash_two_domains
      ] );
    ( "paillier",
      [ Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
        Alcotest.test_case "probabilistic" `Quick test_paillier_probabilistic;
        Alcotest.test_case "homomorphic add" `Quick test_paillier_homomorphic_add;
        Alcotest.test_case "add wraps mod n" `Quick test_paillier_add_wraps;
        Alcotest.test_case "scalar mul" `Quick test_paillier_scalar_mul;
        Alcotest.test_case "neg and sub" `Quick test_paillier_neg_sub;
        Alcotest.test_case "rerandomize" `Quick test_paillier_rerandomize;
        Alcotest.test_case "rerandomize_with" `Quick test_paillier_rerandomize_with;
        Alcotest.test_case "trivial encryption" `Quick test_paillier_trivial;
        Alcotest.test_case "CRT decrypt = classic" `Quick test_paillier_crt_matches_classic;
        Alcotest.test_case "shortened-noise comb" `Quick test_paillier_shortened_noise_comb;
        Alcotest.test_case "encrypt_neg_with = negated encrypt_with" `Quick
          test_paillier_encrypt_neg_with;
        Alcotest.test_case "non-unit ciphertexts rejected" `Quick test_non_unit_ciphertexts;
        Alcotest.test_case "ciphertext sizes" `Quick test_ciphertext_sizes;
        prop_paillier_add;
        prop_paillier_scalar
      ] );
    ( "damgard-jurik",
      [ Alcotest.test_case "roundtrip" `Quick test_dj_roundtrip;
        Alcotest.test_case "homomorphic" `Quick test_dj_homomorphic;
        Alcotest.test_case "CRT decrypt = classic" `Quick test_dj_crt_matches_classic
      ] )
  ]

let () = Alcotest.run "crypto" suite
