open Bignum

type public = {
  n : Nat.t;
  n2 : Nat.t;
  key_bits : int;
  h : Nat.t;
  rand_bits : int option;
}

type secret = {
  pub : public;
  p : Nat.t;
  q : Nat.t;
  lambda : Nat.t;
  mu : Nat.t;
  (* CRT decryption state: work mod p^2 and q^2 with half-size exponents
     p-1 and q-1 instead of mod n^2 with lambda. [hp] is the inverse of
     L_p((1+n)^(p-1) mod p^2) mod p, precomputed in closed form (the
     binomial series truncates: (1+n)^(p-1) = 1 + (p-1)*n mod p^2). *)
  p2 : Nat.t;
  q2 : Nat.t;
  pm1 : Nat.t;
  qm1 : Nat.t;
  hp : Nat.t;
  hq : Nat.t;
  p_inv_q : Nat.t; (* p^-1 mod q, for Garner recombination *)
}

type ciphertext = Nat.t

let keygen ?rand_bits rng ~bits =
  if bits < 16 then invalid_arg "Paillier.keygen: modulus too small";
  let half = bits / 2 in
  let rand_below = Rng.nat_below rng in
  let rec gen () =
    let p = Prime.gen_prime ~bits:half ~rand_below () in
    let q = Prime.gen_prime ~bits:(bits - half) ~rand_below () in
    if Nat.equal p q then gen ()
    else begin
      let n = Nat.mul p q in
      let lambda = Modular.lcm (Nat.pred p) (Nat.pred q) in
      (* require gcd(n, lambda) = 1 so that mu exists; holds for random
         distinct primes but regenerate defensively *)
      if Nat.bit_length n <> bits || not (Nat.is_one (Modular.gcd n lambda)) then gen ()
      else (p, q, n, lambda)
    end
  in
  let p, q, n, lambda = gen () in
  let n2 = Nat.mul n n in
  let mu = Modular.inv (Nat.rem lambda n) ~m:n in
  let h = Modular.pow (Rng.unit_mod rng n) n ~m:n2 in
  let pub = { n; n2; key_bits = bits; h; rand_bits } in
  let pm1 = Nat.pred p and qm1 = Nat.pred q in
  (* L_p((1+n)^(p-1) mod p^2) = (p-1)*q mod p, so hp = ((p-1)*q)^-1 mod p *)
  let hp = Modular.inv (Nat.rem (Nat.mul pm1 q) p) ~m:p in
  let hq = Modular.inv (Nat.rem (Nat.mul qm1 p) q) ~m:q in
  let p_inv_q = Modular.inv (Nat.rem p q) ~m:q in
  (pub,
   { pub; p; q; lambda; mu; p2 = Nat.mul p p; q2 = Nat.mul q q; pm1; qm1; hp; hq; p_inv_q })

let secret_params sk = (sk.p, sk.q, sk.lambda)

let with_rand_bits pub rb = { pub with rand_bits = rb }

(* Noise in two halves: the draw that picks it and the exponentiation
   that turns the draw into r^n mod n^2 (or h^rho under shortened noise).
   A fan-out draws on the calling domain in sequential order and
   exponentiates anywhere. *)
let draw_noise rng pub =
  match pub.rand_bits with
  | None -> Rng.unit_mod rng pub.n
  | Some b ->
    (* rho = rand_bits-bit value + 1, so the comb needs b+1 bits *)
    Nat.succ (Rng.nat_bits rng b)

let noise_of pub draw =
  match pub.rand_bits with
  | None -> Modular.pow draw pub.n ~m:pub.n2
  | Some b -> begin
    match Fixed_base.cached ~base:pub.h ~m:pub.n2 ~max_bits:(b + 1) with
    | Some fb -> Fixed_base.pow fb draw
    | None -> Modular.pow pub.h draw ~m:pub.n2
  end

let noise rng pub = noise_of pub (draw_noise rng pub)

let encrypt rng pub m =
  Obs.bump Obs.Metrics.Paillier_enc;
  let m = Nat.rem m pub.n in
  let gm = Nat.rem (Nat.succ (Nat.mul m pub.n)) pub.n2 in
  Modular.mul gm (noise rng pub) ~m:pub.n2

let encrypt_int rng pub m =
  if m < 0 then invalid_arg "Paillier.encrypt_int: negative (use Nat encoding)";
  encrypt rng pub (Nat.of_int m)

(* CRT decryption: for c = (1+n)^m * r^n mod n^2,
   c^(p-1) mod p^2 = (1+n)^(m*(p-1)) mod p^2 (the noise vanishes because
   r^(p*(p-1)) = 1 mod p^2 and p | n), and the binomial series truncates
   to 1 + m*(p-1)*n mod p^2, so L_p(c^(p-1)) * hp = m mod p. Half-size
   moduli with half-size exponents, recombined by CRT — ~4x cheaper than
   one lambda-exponentiation mod n^2. A unit has u = 1 mod p; u = 0
   exactly when p divides c. *)
let decrypt sk c =
  Obs.bump Obs.Metrics.Paillier_dec;
  let half p2 pm1 hp p =
    let u = Modular.pow (Nat.rem c p2) pm1 ~m:p2 in
    if Nat.is_zero u then invalid_arg "Paillier.decrypt: ciphertext is not a unit";
    Modular.mul (Nat.div (Nat.pred u) p) hp ~m:p
  in
  let mp = half sk.p2 sk.pm1 sk.hp sk.p in
  let mq = half sk.q2 sk.qm1 sk.hq sk.q in
  (* Garner: m = mp + p * ((mq - mp) * p^-1 mod q) *)
  let k = Modular.mul (Modular.sub mq (Nat.rem mp sk.q) ~m:sk.q) sk.p_inv_q ~m:sk.q in
  Nat.add mp (Nat.mul sk.p k)

let decrypt_signed sk c =
  let m = decrypt sk c in
  let half = Nat.shift_right sk.pub.n 1 in
  if Nat.compare m half > 0 then Bigint.neg (Bigint.of_nat (Nat.sub sk.pub.n m))
  else Bigint.of_nat m

let add pub a b = Modular.mul a b ~m:pub.n2

let scalar_mul pub c k =
  Obs.bump Obs.Metrics.Paillier_mul;
  Modular.pow c (Nat.rem k pub.n) ~m:pub.n2

(* prod_i c_i^(k_i mod n) — the homomorphic weighted sum
   sum_i k_i * m_i — as one interleaved multi-exponentiation sharing a
   single squaring chain across all bases. Counted as the scalar
   multiplications it replaces so the closed-form cost model stays
   exact. *)
let scalar_mul_many pub pairs =
  Obs.add Obs.Metrics.Paillier_mul (List.length pairs);
  Modular.multi_pow (List.map (fun (c, k) -> (c, Nat.rem k pub.n)) pairs) ~m:pub.n2

let neg pub c =
  Obs.bump Obs.Metrics.Paillier_mul;
  Modular.pow c (Nat.pred pub.n) ~m:pub.n2

let sub pub a b = add pub a (neg pub b)

let rerandomize rng pub c =
  Obs.bump Obs.Metrics.Paillier_rerand;
  Modular.mul c (noise rng pub) ~m:pub.n2

(* noise made ahead ([noise_of] of a draw): one modular multiplication *)
let rerandomize_with pub ~noise c =
  Obs.bump Obs.Metrics.Paillier_rerand;
  Modular.mul c noise ~m:pub.n2

let trivial pub m = Nat.rem (Nat.succ (Nat.mul (Nat.rem m pub.n) pub.n)) pub.n2

(* Encryption from a precomputed noise factor: byte-identical to
   [encrypt] when [noise] came from the same rng position, but costs one
   modular multiplication. *)
let encrypt_with pub ~noise m =
  Obs.bump Obs.Metrics.Paillier_enc;
  Modular.mul (trivial pub m) noise ~m:pub.n2

(* [neg (encrypt_with pub ~noise:(noise_of pub draw) m)] without the
   negation: (g^m * h^rho)^(n-1) = g^(-m) * (h^(n-1))^rho mod n^2, and
   h^(n-1) has a comb of its own. Textbook noise r^n has no fixed base,
   so it keeps the exponentiation. *)
let encrypt_neg_with pub ~draw m =
  Obs.bump Obs.Metrics.Paillier_enc;
  let neg = Nat.pred pub.n in
  match pub.rand_bits with
  | None -> Modular.pow (Modular.mul (trivial pub m) (noise_of pub draw) ~m:pub.n2) neg ~m:pub.n2
  | Some b ->
    let noise =
      match Fixed_base.cached_power ~base:pub.h ~exp:neg ~m:pub.n2 ~max_bits:(b + 1) with
      | Some fb -> Fixed_base.pow fb draw
      | None -> Modular.pow (Modular.pow pub.h draw ~m:pub.n2) neg ~m:pub.n2
    in
    Modular.mul (trivial pub (Modular.sub Nat.zero (Nat.rem m pub.n) ~m:pub.n)) noise ~m:pub.n2

(* Build the per-key tables before the first encryption: the Montgomery
   contexts for n and n^2 and, under shortened noise, the fixed-base
   comb for h. Servers call this at startup so no query pays the
   one-time cost. The comb for h^(n-1) is left to the first
   [encrypt_neg_with]: only S1 strips, and only under the client key. *)
let precompute pub =
  ignore (Modular.mul Nat.one Nat.one ~m:pub.n);
  ignore (Modular.mul Nat.one Nat.one ~m:pub.n2);
  match pub.rand_bits with
  | None -> ()
  | Some b -> ignore (Fixed_base.cached ~base:pub.h ~m:pub.n2 ~max_bits:(b + 1))
let to_nat c = c

let of_nat pub c =
  if Nat.compare c pub.n2 >= 0 then invalid_arg "Paillier.of_nat: out of range";
  c

let ciphertext_bytes pub = (Nat.bit_length pub.n2 + 7) / 8
let plaintext_bytes pub = (Nat.bit_length pub.n + 7) / 8
let equal_ct = Nat.equal
