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

let select (s1 : Ctx.s1) ~t ~if_one ~if_zero =
  let dj = s1.djpub in
  (* the constant E2(1) may be a deterministic encryption: every select
     output is re-randomized by RecoverEnc's blinding before leaving S1 *)
  let e2_one = Damgard_jurik.trivial dj Nat.one in
  let one_minus_t = Damgard_jurik.sub dj e2_one t in
  Damgard_jurik.add dj
    (Damgard_jurik.scalar_mul_ct dj t if_one)
    (Damgard_jurik.scalar_mul_ct dj one_minus_t if_zero)

let recover_enc (ctx : Ctx.t) ~protocol e2c =
  let s1 = ctx.Ctx.s1 in
  let r = Rng.nat_below s1.rng s1.pub.Paillier.n in
  let enc_r = Paillier.encrypt s1.rng s1.pub r in
  let blinded = Damgard_jurik.scalar_mul_ct s1.djpub e2c enc_r in
  (* S2 strips the outer layer; the inner Enc(c+r) is blinded *)
  match Ctx.rpc ctx ~label:protocol (Wire.Recover blinded) with
  | Wire.Ct inner -> Paillier.sub s1.pub inner enc_r (* back at S1: remove r *)
  | _ -> failwith "Gadgets.recover_enc: unexpected response"

let select_recover ctx ~protocol ~t ~if_one ~if_zero =
  recover_enc ctx ~protocol (select ctx.Ctx.s1 ~t ~if_one ~if_zero)

(* Batched RecoverEnc: per-element blinding drawn in list order (the same
   draws singleton execution makes), then every Recover in one frame. *)
let recover_enc_many (ctx : Ctx.t) ~protocol e2cs =
  let s1 = ctx.Ctx.s1 in
  let blinded =
    List.map
      (fun e2c ->
        let r = Rng.nat_below s1.rng s1.pub.Paillier.n in
        let enc_r = Paillier.encrypt s1.rng s1.pub r in
        (enc_r, Damgard_jurik.scalar_mul_ct s1.djpub e2c enc_r))
      e2cs
  in
  let resps =
    Ctx.rpc_batch ctx ~label:protocol (List.map (fun (_, b) -> Wire.Recover b) blinded)
  in
  List.map2
    (fun (enc_r, _) resp ->
      match resp with
      | Wire.Ct inner -> Paillier.sub s1.pub inner enc_r
      | _ -> failwith "Gadgets.recover_enc_many: unexpected response")
    blinded resps

(* [f 0], ..., [f (n-1)] in index order: the calls draw randomness, so
   the order is part of the determinism contract. *)
let draw_each n f =
  let rec go i acc = if i = n then Array.of_list (List.rev acc) else go (i + 1) (f i :: acc) in
  go 0 []

(* Batched RecoverEnc over [jobs] multi-exponentiation specs; [spec i]
   builds the pair list of one E2 accumulator [sum_i k_i * x_i] and draws
   nothing. Since the RecoverEnc blinding is itself an exponentiation,
   [(prod c_i^{k_i})^e = prod c_i^{k_i * e}], it folds into the same
   simultaneous pass and the blinding costs no extra modexp. Each spec's
   blinding [r] and its encryption noise are drawn on the calling domain,
   in index order (the draws {!recover_enc_many} makes); building the
   specs, the noise and blinding exponentiations and, after the batch
   round, the unblinding fan out over the context's width. *)
let recover_specs (ctx : Ctx.t) ~protocol ~jobs spec =
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let draws =
    draw_each jobs (fun _ ->
        let r = Rng.nat_below s1.rng pub.Paillier.n in
        (r, Paillier.draw_noise s1.rng pub))
  in
  let blinded =
    Ctx.map ctx ~jobs (fun i ->
        let r, noise = draws.(i) in
        let enc_r = Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub noise) r in
        let e = Paillier.to_nat enc_r in
        (* account for the blinding exponentiation the fold absorbs *)
        Obs.bump Obs.Metrics.Dj_mul;
        ( enc_r,
          Damgard_jurik.scalar_mul_many s1.djpub
            (List.map (fun (c, k) -> (c, Nat.mul (Paillier.to_nat k) e)) (spec i)) ))
  in
  let resps =
    Array.of_list
      (Ctx.rpc_batch ctx ~label:protocol
         (Array.to_list (Array.map (fun (_, b) -> Wire.Recover b) blinded)))
  in
  Array.to_list
    (Ctx.map ctx ~jobs (fun i ->
         match resps.(i) with
         | Wire.Ct inner -> Paillier.sub pub inner (fst blinded.(i))
         | _ -> failwith "Gadgets.recover_enc_specs: unexpected response"))

let recover_enc_specs ctx ~protocol specs =
  let specs = Array.of_list specs in
  recover_specs ctx ~protocol ~jobs:(Array.length specs) (fun i -> specs.(i))

let select_recover_many (ctx : Ctx.t) ~protocol choices =
  let dj = ctx.Ctx.s1.djpub in
  let choices = Array.of_list choices in
  let e2_one = Damgard_jurik.trivial dj Nat.one in
  recover_specs ctx ~protocol ~jobs:(Array.length choices) (fun i ->
      let t, if_one, if_zero = choices.(i) in
      [ (t, if_one); (Damgard_jurik.sub dj e2_one t, if_zero) ])

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

(* Both halves of the lift fan out: the blinding and DJ-noise draws are
   made on the calling domain in item order, block after block, the
   encryptions and the DJ subtraction (a negation, i.e. a full
   exponentiation) anywhere. Each block travels as its own [Lift] request
   of one batch. *)
let lift_many (ctx : Ctx.t) ~protocol blocks =
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub and dj = s1.djpub in
  let sizes = List.map List.length blocks in
  let cts = Array.of_list (List.concat blocks) in
  let jobs = Array.length cts in
  (* blinding below n/2 so that bit + r never wraps mod n (a wrap would
     corrupt the value when the blinding is stripped in the wider DJ
     plaintext space) *)
  let half = Nat.shift_right pub.Paillier.n 1 in
  let draws =
    draw_each jobs (fun _ ->
        let r = Rng.nat_below s1.rng half in
        (r, Paillier.draw_noise s1.rng pub))
  in
  let blinded =
    Ctx.map ctx ~jobs (fun i ->
        let r, noise = draws.(i) in
        Paillier.add pub cts.(i) (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub noise) r))
  in
  (* S2 re-encrypts the (blinded, uniform) plaintexts under DJ *)
  let lifted =
    List.map2
      (fun n resp ->
        match resp with
        | Wire.Bits2 lifted when List.length lifted = n -> lifted
        | _ -> failwith "Gadgets.lift_many: unexpected response")
      sizes
      (Ctx.rpc_batch ctx ~label:protocol
         (List.map (fun b -> Wire.Lift b) (chunks sizes blinded)))
    |> List.concat |> Array.of_list
  in
  (* S1 strips the blinding inside the DJ layer *)
  let dj_noise = draw_each jobs (fun _ -> Damgard_jurik.draw_noise s1.rng dj) in
  chunks sizes
    (Ctx.map ctx ~jobs (fun i ->
         let r, _ = draws.(i) in
         Damgard_jurik.sub dj lifted.(i)
           (Damgard_jurik.encrypt_with dj ~noise:(Damgard_jurik.noise_of dj dj_noise.(i)) r)))

let enc_zero (s1 : Ctx.s1) = ignore s1.rng; Paillier.trivial s1.pub Nat.zero

let enc_int (s1 : Ctx.s1) v =
  if v < 0 then invalid_arg "Gadgets.enc_int: negative";
  Paillier.encrypt s1.rng s1.pub (Nat.of_int v)
