open Bignum
open Crypto

let blind_scalar (s1 : Ctx.s1) =
  match s1.blind_bits with
  | None -> Rng.unit_mod s1.rng s1.pub.Paillier.n
  | Some bits -> Nat.succ (Rng.nat_bits s1.rng bits)

(* One equality round over several independent blocks: one [Equality]
   request per block, all in one batch, so S2 never sees two blocks'
   differences in one request. A single block is a plain rpc (the
   singleton batch delegates). A block with no differences still sends
   its request: the protocol's round (and S2's empty Equality_bits
   trace entry) exists either way. *)
let equality_round_many (ctx : Ctx.t) ~protocol blocks =
  List.map
    (function
      | Wire.Bits2 ts -> ts | _ -> failwith "Gadgets.equality_round: unexpected response")
    (Ctx.rpc_batch ctx ~label:protocol (List.map (fun diffs -> Wire.Equality diffs) blocks))

let equality_round ctx ~protocol diffs = List.hd (equality_round_many ctx ~protocol [ diffs ])

let conjunction_round (ctx : Ctx.t) ~protocol groups =
  match Ctx.rpc ctx ~label:protocol (Wire.Conjunction groups) with
  | Wire.Bits2 replies -> replies
  | _ -> failwith "Gadgets.conjunction_round: unexpected response"

type spec = { offset : Nat.t; terms : (Damgard_jurik.ciphertext * Nat.t) list }

(* [f 0], ..., [f (n-1)] in index order: the calls draw randomness, so
   the order is part of the determinism contract. *)
let draw_each n f =
  let rec go i acc = if i = n then Array.of_list (List.rev acc) else go (i + 1) (f i :: acc) in
  go 0 []

(* Batched RecoverEnc over [jobs] specs; [spec i] builds one and draws
   nothing. A spec is E2(d + sum_i k_i * x_i) for c_i = E2(x_i), and the
   RecoverEnc blinding e = Enc(r) multiplies the plaintext, so the
   blinded ciphertext is trivial(d * e) * prod c_i^(k_i * e): one
   simultaneous exponentiation over the terms, the blinding folded in.
   Each spec's blinding [r] and its encryption noise are drawn on the
   calling domain, in index order; building the specs, the blinding
   exponentiations and, after the batch round, the unblinding (an
   encryption of -r from the same draw, off the negated-noise comb) fan
   out over the context's width. *)
let recover_specs (ctx : Ctx.t) ~protocol ~jobs spec =
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub and dj = s1.djpub in
  let draws =
    draw_each jobs (fun _ ->
        let r = Rng.nat_below s1.rng pub.Paillier.n in
        (r, Paillier.draw_noise s1.rng pub))
  in
  let blinded =
    Ctx.map ctx ~jobs (fun i ->
        let r, noise = draws.(i) in
        let e = Paillier.to_nat (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub noise) r) in
        let { offset; terms } = spec i in
        (* account for the blinding exponentiation the fold absorbs *)
        Obs.bump Obs.Metrics.Dj_mul;
        Damgard_jurik.add dj
          (Damgard_jurik.trivial dj (Nat.mul offset e))
          (Damgard_jurik.scalar_mul_many dj (List.map (fun (c, k) -> (c, Nat.mul k e)) terms)))
  in
  let resps =
    Array.of_list
      (Ctx.rpc_batch ctx ~label:protocol (Array.to_list (Array.map (fun b -> Wire.Recover b) blinded)))
  in
  Array.to_list
    (Ctx.map ctx ~jobs (fun i ->
         match resps.(i) with
         | Wire.Ct inner ->
           let r, noise = draws.(i) in
           Paillier.add pub inner (Paillier.encrypt_neg_with pub ~draw:noise r)
         | _ -> failwith "Gadgets.recover_enc_specs: unexpected response"))

let recover_enc_specs ctx ~protocol specs =
  let specs = Array.of_list specs in
  recover_specs ctx ~protocol ~jobs:(Array.length specs) (fun i -> specs.(i))

(* E2(t * x1 + (1 - t) * x0) = E2(x0) * t^(x1 - x0): one term, the
   difference taken mod n^2 *)
let select_recover_many (ctx : Ctx.t) ~protocol choices =
  let n2 = ctx.Ctx.s1.pub.Paillier.n2 in
  let choices = Array.of_list choices in
  recover_specs ctx ~protocol ~jobs:(Array.length choices) (fun i ->
      let t, if_one, if_zero = choices.(i) in
      let x0 = Paillier.to_nat if_zero in
      { offset = x0; terms = [ (t, Modular.sub (Paillier.to_nat if_one) x0 ~m:n2) ] })

let pass_through blocks ~pass f =
  let outs =
    ref (match List.filter (fun b -> Option.is_none (pass b)) blocks with [] -> [] | live -> f live)
  in
  List.map
    (fun b ->
      match (pass b, !outs) with
      | Some out, _ -> out
      | None, out :: rest ->
        outs := rest;
        out
      | None, [] -> invalid_arg "Gadgets.pass_through: too few results")
    blocks

let chunks sizes arr =
  snd (List.fold_left_map (fun off n -> (off + n, Array.to_list (Array.sub arr off n))) 0 sizes)

let strip (s1 : Ctx.s1) c m =
  Paillier.add s1.pub c (Paillier.encrypt_neg_with s1.pub ~draw:(Paillier.draw_noise s1.rng s1.pub) m)

let enc_zero (s1 : Ctx.s1) = ignore s1.rng; Paillier.trivial s1.pub Nat.zero
