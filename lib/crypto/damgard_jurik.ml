open Bignum

type public = {
  n : Nat.t;
  n2 : Nat.t;
  n3 : Nat.t;
  h2 : Nat.t;
  rand_bits : int option;
}

(* CRT exponentiation state: the order of Z_{p^3}^* is p^2*(p-1), so
   c^d mod p^3 = c^(d mod p^2*(p-1)) mod p^3 — half-size modulus, and the
   reduced exponent is half the width of d. *)
type crt = {
  p3 : Nat.t;
  q3 : Nat.t;
  dp : Nat.t;
  dq : Nat.t;
  p3_inv_q3 : Nat.t; (* (p^3)^-1 mod q^3, for Garner recombination *)
}

type secret = {
  pub : public;
  d : Nat.t; (* d = 1 mod n^2, d = 0 mod lambda *)
  crt : crt option;
}

type ciphertext = Nat.t

let public_of_paillier (ppub : Paillier.public) =
  let n = ppub.Paillier.n in
  let n2 = ppub.Paillier.n2 in
  let n3 = Nat.mul n2 n in
  (* nothing-up-my-sleeve n^2-th residue: derived from the modulus *)
  let base =
    let rec find ctr =
      let cand =
        Nat.succ (Nat.rem (Nat.of_bytes (Hmac.mac ~key:"dj-h2" (Nat.to_bytes n ^ string_of_int ctr))) (Nat.pred n))
      in
      if Nat.is_one (Modular.gcd cand n) then cand else find (ctr + 1)
    in
    find 0
  in
  let h2 = Modular.pow base n2 ~m:n3 in
  { n; n2; n3; h2; rand_bits = ppub.Paillier.rand_bits }

let of_paillier ppub psk =
  let pub = public_of_paillier ppub in
  let sk =
    Option.map
      (fun sk ->
        let p, q, lambda = Paillier.secret_params sk in
        let d = Modular.crt2 (Nat.one, pub.n2) (Nat.zero, lambda) in
        let p3 = Nat.mul (Nat.mul p p) p and q3 = Nat.mul (Nat.mul q q) q in
        let dp = Nat.rem d (Nat.mul (Nat.mul p p) (Nat.pred p)) in
        let dq = Nat.rem d (Nat.mul (Nat.mul q q) (Nat.pred q)) in
        let p3_inv_q3 = Modular.inv (Nat.rem p3 q3) ~m:q3 in
        { pub; d; crt = Some { p3; q3; dp; dq; p3_inv_q3 } })
      psk
  in
  (pub, sk)

(* (1+n)^x mod n^3 = 1 + x*n + C(x,2)*n^2, truncating the binomial series
   at the n^3 term. x*(x-1) is always even so the division is exact. *)
let g_pow pub x =
  let x = Nat.rem x pub.n2 in
  let t1 = Nat.rem (Nat.mul x pub.n) pub.n3 in
  let binom = Nat.shift_right (Nat.mul x (if Nat.is_zero x then Nat.zero else Nat.pred x)) 1 in
  let t2 = Nat.rem (Nat.mul (Nat.rem binom pub.n) pub.n2) pub.n3 in
  Modular.add (Modular.add Nat.one t1 ~m:pub.n3) t2 ~m:pub.n3

(* The draw and the exponentiation of the noise, as in Paillier. *)
let draw_noise rng pub =
  match pub.rand_bits with
  | None -> Rng.unit_mod rng pub.n
  | Some b -> Nat.succ (Rng.nat_bits rng b)

let noise_of pub draw =
  match pub.rand_bits with
  | None -> Modular.pow draw pub.n2 ~m:pub.n3
  | Some b -> begin
    match Fixed_base.cached ~base:pub.h2 ~m:pub.n3 ~max_bits:(b + 1) with
    | Some fb -> Fixed_base.pow fb draw
    | None -> Modular.pow pub.h2 draw ~m:pub.n3
  end

let noise rng pub = noise_of pub (draw_noise rng pub)

let encrypt_with pub ~noise x =
  Obs.bump Obs.Metrics.Dj_enc;
  Modular.mul (g_pow pub x) noise ~m:pub.n3

let encrypt rng pub x = encrypt_with pub ~noise:(noise rng pub) x

let trivial pub x = g_pow pub x

let encrypt_layered rng pub inner = encrypt rng pub (Paillier.to_nat inner)

(* c^d mod n^3, via the CRT halves when the factorization is known. *)
let pow_d sk c =
  match sk.crt with
  | None -> Modular.pow c sk.d ~m:sk.pub.n3
  | Some { p3; q3; dp; dq; p3_inv_q3 } ->
    let up = Modular.pow (Nat.rem c p3) dp ~m:p3 in
    let uq = Modular.pow (Nat.rem c q3) dq ~m:q3 in
    (* Garner: u = up + p^3 * ((uq - up) * (p^3)^-1 mod q^3) *)
    let k = Modular.mul (Modular.sub uq (Nat.rem up q3) ~m:q3) p3_inv_q3 ~m:q3 in
    Nat.add up (Nat.mul p3 k)

let decrypt sk c =
  Obs.bump Obs.Metrics.Dj_dec;
  let pub = sk.pub in
  (* c^d = (1+n)^m mod n^3; recover m = m0 + n*m1 digit by digit. *)
  let u = pow_d sk c in
  let t = Nat.div (Nat.pred u) pub.n in
  (* t = m + C(m,2)*n (mod n^2) *)
  let t = Nat.rem t pub.n2 in
  let m0 = Nat.rem t pub.n in
  let binom = Nat.rem (Nat.shift_right (Nat.mul m0 (if Nat.is_zero m0 then Nat.zero else Nat.pred m0)) 1) pub.n in
  let hi = Nat.div (Nat.sub t m0) pub.n in
  let m1 = Modular.sub (Nat.rem hi pub.n) binom ~m:pub.n in
  Nat.add m0 (Nat.mul pub.n m1)

let decrypt_layered sk ppub c = Paillier.of_nat ppub (decrypt sk c)
let add pub a b = Modular.mul a b ~m:pub.n3

let scalar_mul pub c k =
  Obs.bump Obs.Metrics.Dj_mul;
  Modular.pow c (Nat.rem k pub.n2) ~m:pub.n3

let scalar_mul_ct pub c inner = scalar_mul pub c (Paillier.to_nat inner)

(* Enc2(sum k_i * x_i) from pairs (Enc2(x_i), k_i): one interleaved-window
   multi-exponentiation over n^3 — the squaring chain is shared across all
   pairs, so a fold of [scalar_mul] + [add] collapses to a fraction of the
   modular multiplications. The product is exact (no rerandomization), so
   the resulting ciphertext is identical to the unfused fold's. *)
let scalar_mul_many pub pairs =
  Obs.add Obs.Metrics.Dj_mul (List.length pairs);
  Modular.multi_pow (List.map (fun (c, k) -> (c, Nat.rem k pub.n2)) pairs) ~m:pub.n3

let scalar_mul_ct_many pub pairs =
  scalar_mul_many pub (List.map (fun (c, inner) -> (c, Paillier.to_nat inner)) pairs)

let neg pub c =
  Obs.bump Obs.Metrics.Dj_mul;
  Modular.pow c (Nat.pred pub.n2) ~m:pub.n3

let sub pub a b = add pub a (neg pub b)

let rerandomize rng pub c =
  Obs.bump Obs.Metrics.Dj_rerand;
  Modular.mul c (noise rng pub) ~m:pub.n3

(* noise drawn ahead (Noise_pool): one modular multiplication *)
let rerandomize_with pub ~noise c =
  Obs.bump Obs.Metrics.Dj_rerand;
  Modular.mul c noise ~m:pub.n3

(* Counterpart of [Paillier.precompute] for the layer-2 key: Montgomery
   context for n^3 plus the comb for h2 under shortened noise. *)
let precompute pub =
  ignore (Modular.mul Nat.one Nat.one ~m:pub.n3);
  match pub.rand_bits with
  | None -> ()
  | Some b -> ignore (Fixed_base.cached ~base:pub.h2 ~m:pub.n3 ~max_bits:(b + 1))

let to_nat c = c

let of_nat pub c =
  if Nat.compare c pub.n3 >= 0 then invalid_arg "Damgard_jurik.of_nat: out of range";
  c

let ciphertext_bytes pub = (Nat.bit_length pub.n3 + 7) / 8
let equal_ct = Nat.equal
