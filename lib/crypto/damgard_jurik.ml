open Bignum

type public = {
  n : Nat.t;
  n2 : Nat.t;
  n3 : Nat.t;
  h2 : Nat.t;
  rand_bits : int option;
}

(* DJN CRT decryption state for one prime p of n = pq, with q the other
   (Damgård, Jurik and Nielsen, "A generalization of Paillier's public-key
   system with applications to electronic voting", 2010). *)
type half = {
  p : Nat.t;
  p2 : Nat.t;
  p3 : Nat.t;
  pm1 : Nat.t; (* p - 1: the exponent that kills the noise mod p^3 *)
  q_inv : Nat.t; (* q^-1 mod p *)
  q2 : Nat.t; (* q^2 mod p *)
  scale : Nat.t; (* (q(p-1))^-1 mod p^2 *)
}

type secret = {
  hp : half;
  hq : half;
  p2_inv_q2 : Nat.t; (* (p^2)^-1 mod q^2, for Garner recombination *)
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

let half p q =
  let p2 = Nat.mul p p in
  {
    p;
    p2;
    p3 = Nat.mul p2 p;
    pm1 = Nat.pred p;
    q_inv = Modular.inv (Nat.rem q p) ~m:p;
    q2 = Nat.rem (Nat.mul q q) p;
    scale = Modular.inv (Nat.rem (Nat.mul q (Nat.pred p)) p2) ~m:p2;
  }

let of_paillier ppub psk =
  let pub = public_of_paillier ppub in
  let sk =
    Option.map
      (fun sk ->
        let p, q, _ = Paillier.secret_params sk in
        let hp = half p q and hq = half q p in
        { hp; hq; p2_inv_q2 = Modular.inv (Nat.rem hp.p2 hq.p2) ~m:hq.p2 })
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

let encrypt rng pub x =
  Obs.bump Obs.Metrics.Dj_enc;
  Modular.mul (g_pow pub x) (noise_of pub (draw_noise rng pub)) ~m:pub.n3

(* m mod p^2 from one CRT half. With c = (1+n)^m * r^(n^2) mod n^3, the
   n^2-th residue has order dividing p-1 mod p^3, so u = c^(p-1) mod p^3
   = (1+pq)^x with x = m(p-1), and the binomial series stops at the p^2
   term:

     u = 1 + x*pq + C(x,2)*p^2*q^2  (mod p^3)
     t = (u-1)/p = x*q + p*C(x,2)*q^2  (mod p^2)

   so x0 = x mod p = t*q^-1 mod p fixes C(x,2) mod p = C(x0,2) mod p,
   and x*q = t - p*(C(x0,2)*q^2 mod p) mod p^2 gives
   m = x*q * (q(p-1))^-1 mod p^2. A unit has u = 1 mod p; u = 0 exactly
   when p divides c. *)
let decrypt_half h c =
  let u = Modular.pow (Nat.rem c h.p3) h.pm1 ~m:h.p3 in
  if Nat.is_zero u then invalid_arg "Damgard_jurik.decrypt: ciphertext is not a unit";
  let t = Nat.div (Nat.pred u) h.p in
  let x0 = Modular.mul (Nat.rem t h.p) h.q_inv ~m:h.p in
  let binom =
    Nat.rem (Nat.shift_right (Nat.mul x0 (if Nat.is_zero x0 then Nat.zero else Nat.pred x0)) 1) h.p
  in
  let xq = Modular.sub t (Nat.mul h.p (Modular.mul binom h.q2 ~m:h.p)) ~m:h.p2 in
  Modular.mul xq h.scale ~m:h.p2

let decrypt sk c =
  Obs.bump Obs.Metrics.Dj_dec;
  let mp = decrypt_half sk.hp c and mq = decrypt_half sk.hq c in
  (* Garner: m = mp + p^2 * ((mq - mp) * (p^2)^-1 mod q^2) *)
  let q2 = sk.hq.p2 in
  let k = Modular.mul (Modular.sub mq (Nat.rem mp q2) ~m:q2) sk.p2_inv_q2 ~m:q2 in
  Nat.add mp (Nat.mul sk.hp.p2 k)

let scalar_mul pub c k =
  Obs.bump Obs.Metrics.Dj_mul;
  Modular.pow c (Nat.rem k pub.n2) ~m:pub.n3
