(* Micro-benchmarks of the crypto substrate: the per-operation costs
   every protocol-level number decomposes into.

   Estimator: each datapoint is the minimum per-op mean over several
   fixed-size trials (batches calibrated to a few milliseconds). These
   operations are deterministic pure CPU, so their unloaded cost is the
   lower envelope of the trial means; a regression fit over all samples
   (the previous bechamel OLS) absorbs host noise from neighbors on a
   shared single-core VM and ran 1.4-2x above the envelope. See
   EXPERIMENTS.md for the methodology note. *)

open Bignum
open Crypto
open Bench_util

(* min-of-trials per-op nanoseconds *)
let time_ns f =
  let batch n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    Unix.gettimeofday () -. t0
  in
  (* warm caches/tables, then grow the batch until it runs >= 3 ms *)
  let rec calibrate n = if batch n >= 0.003 then n else calibrate (n * 4) in
  let n = calibrate 1 in
  let best = ref infinity in
  for _ = 1 to 9 do
    let per = batch n /. float_of_int n in
    if per < !best then best := per
  done;
  !best *. 1e9

(* Deterministic odd modulus of exactly [bits] bits (top bit set) for the
   per-width Montgomery datapoints; RSA-width to triple-width as in a
   full-size deployment (the protocol suite above runs scaled 128-bit
   keys, see bench_util). *)
let modulus_of_bits bits =
  let m = Rng.nat_bits rng bits in
  let m = Nat.add m (Nat.shift_left Nat.one (bits - 1)) in
  if Nat.is_even m then Nat.succ m else m

(* per-width modular mul and modexp (256-bit exponent) datapoints *)
let width_tests () =
  List.concat_map
    (fun bits ->
      let m = modulus_of_bits bits in
      let a = Rng.nat_below rng m and b = Rng.nat_below rng m in
      let e = Rng.nat_bits rng 256 in
      let x = Rng.nat_below rng m in
      [ (Printf.sprintf "mont_mul_%d" bits, fun () -> ignore (Modular.mul a b ~m));
        ( Printf.sprintf "modexp_%d_256b_exp" bits,
          fun () -> ignore (Modular.pow x e ~m) ) ])
    [ 1024; 2048; 3072 ]

(* The kernels over the ciphertext modulus n^2: simultaneous double
   exponentiation vs two pows and a mul; one inversion; the noise comb
   at a full-width 97-bit exponent; one base raised to the ten 128-bit
   exponents of a Replace rewrite (Gadgets.replace_item); and one old
   entry of SecUpdate at a deep query's shape, 3 new items by 4 merged
   fields (Sec_update). *)
let multi_pow_tests () =
  let m = pub.Paillier.n2 in
  let a = Rng.nat_below rng m and b = Rng.nat_below rng m in
  let e1 = Rng.nat_bits rng 128 and e2 = Rng.nat_bits rng 128 in
  let exps count = List.init count (fun _ -> Rng.nat_bits rng 128) in
  [ ( "multi_pow_2bases_128b",
      fun () -> ignore (Modular.multi_pow [ (a, e1); (b, e2) ] ~m) );
    ( "two_pows_mul_128b",
      fun () ->
        ignore (Modular.mul (Modular.pow a e1 ~m) (Modular.pow b e2 ~m) ~m) );
    ( "modinv_n2",
      let c = Paillier.to_nat (Paillier.encrypt rng pub (Rng.nat_below rng pub.Paillier.n)) in
      fun () -> ignore (Modular.inv c ~m) );
    ( "comb_pow_97b",
      let fb = Fixed_base.create (Option.get (Modular.mont_ctx m)) ~base:a ~max_bits:97 in
      let e = Nat.add (Rng.nat_bits rng 96) (Nat.shift_left Nat.one 96) in
      fun () -> ignore (Fixed_base.pow fb e) );
    ( "pow_each_10x128b",
      let es = exps 10 in
      fun () -> ignore (Modular.pow_each a es ~m) );
    ( "multi_pow_rows_3x4",
      let bases = Array.init 3 (fun _ -> Rng.nat_below rng m) in
      let rows = Array.init 4 (fun _ -> Array.of_list (exps 3)) in
      fun () -> ignore (Modular.multi_pow_rows bases rows ~m) ) ]

let tests () =
  let x = Rng.nat_below rng pub.Paillier.n in
  let c = Paillier.encrypt rng pub x in
  let keys = Prf.gen_keys rng ehl_s in
  let ehl_a = Ehl.Ehl_plus.encode rng pub ~keys "a" in
  let ehl_b = Ehl.Ehl_plus.encode rng pub ~keys "b" in
  (* the comb alone, at a fixed draw *)
  let rho = Paillier.draw_noise rng pub in
  [ ("paillier_encrypt", fun () -> ignore (Paillier.encrypt rng pub x));
    ("paillier_decrypt", fun () -> ignore (Paillier.decrypt sk c));
    ("paillier_add", fun () -> ignore (Paillier.add pub c c));
    ("paillier_rerandomize", fun () -> ignore (Paillier.rerandomize rng pub c));
    ("paillier_noise", fun () -> ignore (Paillier.noise_of pub rho));
    ( "mont_mul_n2",
      let m = pub.Paillier.n2 in
      let a = Rng.nat_below rng m and b = Rng.nat_below rng m in
      fun () -> ignore (Modular.mul a b ~m) );
    (* as a phase runs it: the blinds drawn, the first side inverted
       once for many diffs *)
    ( "ehl_plus_diff",
      let inv_a = (Ehl.Ehl_plus.invert_many pub [| ehl_a |]).(0) in
      fun () ->
        let blinds = Ehl.Ehl_plus.draw_blinds ~blind_bits rng pub ehl_a in
        ignore (Ehl.Ehl_plus.diff pub ~blinds inv_a ehl_b) );
    ( "sha256_1kb",
      let buf = String.make 1024 'x' in
      fun () -> ignore (Sha256.digest buf) );
    (* the byte paths under every DRBG draw, PRF evaluation and stored
       ciphertext *)
    ( "hmac_32b",
      let key = Rng.bytes rng 32 and msg = Rng.bytes rng 32 in
      fun () -> ignore (Hmac.mac ~key msg) );
    ( "drbg_generate_256b",
      let d = Drbg.create ~seed:"micro" in
      fun () -> ignore (Drbg.generate d 256) );
    ( "rng_fork_48b",
      let parent = Rng.create ~seed:"micro" in
      fun () ->
        let f = Rng.fork parent ~label:"micro" in
        for _ = 1 to 4 do
          ignore (Sys.opaque_identity (Rng.bytes f 12))
        done );
    ( "prf_to_nat_mod",
      let key = List.hd keys in
      fun () -> ignore (Prf.to_nat_mod ~key "object-42" ~m:pub.Paillier.n) );
    ( "nat_to_bytes_ct",
      let v = Paillier.to_nat c in
      fun () -> ignore (Nat.to_bytes v) );
    ( "modexp_n2_256b_exp",
      fun () -> ignore (Modular.pow x (Nat.mul pub.Paillier.n Nat.two) ~m:pub.Paillier.n2) )
  ]
  @ width_tests () @ multi_pow_tests ()

(* Per-query key set-up, two ways: a whole provisioning per query on S1
   ([ctx_provision_of_keys]) and its replay on S2 at each Mux_open
   ([s2_of_hello]), against a start from copies of state derived once
   ([ctx_of_derived], [s2_session]), as the daemons run. The S1 rows
   build Mux contexts, as serve-s1 does, so they start no local S2.
   Keygen's prime search depends on the seed: this is the benchmark's. *)
let setup_tests sched =
  let open Proto in
  let seed = "benchmark-keys" in
  let provision () = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let mode = Ctx.Mux (sched, 1) in
  let derived =
    let pub, sk, ctx_rng, _ = provision () in
    Ctx.derive ctx_rng pub sk
  in
  let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
  let start = S2_server.provision hello in
  [ ( "ctx_provision_of_keys",
      fun () ->
        let pub, sk, ctx_rng, _ = provision () in
        ignore (Ctx.of_keys ~blind_bits ~mode ctx_rng pub sk) );
    ("ctx_of_derived", fun () -> ignore (Ctx.of_derived ~blind_bits ~mode derived));
    ("s2_of_hello", fun () -> ignore (S2_server.of_hello hello));
    ("s2_session", fun () -> ignore (start ())) ]

(* Each row's ops are counted from one untimed call, in a first pass over
   every row before any timed batch, so the "ops" line is a fixed function
   of the seeded generator. Building the rows and the timed batches, sized
   from the host's speed, run under a throwaway collector. *)
let run () =
  header "micro: crypto substrate op costs (ns/op, min of 9 trials)";
  let uncounted f = Obs.with_collector (Obs.Collector.create ()) f in
  let measure (name, f) =
    let name = "crypto/" ^ name in
    let ns = time_ns f in
    row "%-30s %12.2f us/op@." name (ns /. 1000.);
    (name, ns /. 1e9, 0)
  in
  let crypto = uncounted tests in
  (* a Mux context needs a scheduler; its shipper domain lives only
     while the set-up rows run, and no row ships a trip *)
  let sched =
    Proto.Sched.create ~backend:(fun _ -> invalid_arg "micro: no trips") ()
  in
  let setup =
    Fun.protect
      ~finally:(fun () -> Proto.Sched.stop sched)
      (fun () ->
        let setup = uncounted (fun () -> setup_tests sched) in
        List.iter (fun (_, f) -> ignore (Sys.opaque_identity (f ()))) (crypto @ setup);
        uncounted (fun () -> List.map measure setup))
  in
  let rows = List.sort compare (uncounted (fun () -> List.map measure crypto) @ setup) in
  emit_json ~id:"micro" rows
