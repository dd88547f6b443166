open Bignum
open Crypto

let blind_scalar (s1 : Ctx.s1) =
  match s1.blind_bits with
  | None -> Rng.unit_mod s1.rng s1.pub.Paillier.n
  | Some bits -> Nat.succ (Rng.nat_bits s1.rng bits)

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

let invert pub ehls =
  try Ehl.Ehl_plus.invert_many pub ehls
  with Failure _ -> Proto_error.fail "Gadgets.invert: an EHL+ cell is not a unit"

let enc_zero (s1 : Ctx.s1) = ignore s1.rng; Paillier.trivial s1.pub Nat.zero

(* ---------------- picks ---------------- *)

let draw_mask (s1 : Ctx.s1) =
  let rho = Rng.nat_below s1.rng s1.pub.Paillier.n in
  (rho, Paillier.draw_noise s1.rng s1.pub)

let masked pub c (rho, noise) =
  Paillier.add pub c (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub noise) rho)

let item_fields (it : Enc_item.scored) =
  (it.worst :: Array.to_list it.seen) @ Array.to_list (Ehl.Ehl_plus.cells it.ehl)

type replace_draws = { masks : (Nat.t * Nat.t) array; garbage : Nat.t array }

let draw_replace (s1 : Ctx.s1) (it : Enc_item.scored) =
  let masks = Array.of_list (List.map (fun _ -> draw_mask s1) (item_fields it)) in
  let n = s1.pub.Paillier.n in
  let cells = Array.map (fun _ -> Rng.nat_below s1.rng n) (Ehl.Ehl_plus.cells it.ehl) in
  { masks; garbage = Array.concat [ [| Ctx.sentinel_z s1 |]; Array.map (fun _ -> Nat.one) it.seen; cells ] }

let mask_fields pub it draws =
  List.filteri (fun f _ -> f < Array.length draws.masks) (item_fields it)
  |> List.mapi (fun f c -> masked pub c draws.masks.(f))

(* x' = x * Enc(d * u)^-1 * Enc(d)^(rho + g) = (1 - d) * x + d * g, for
   u = x + rho, field by field in [item_fields] order; every power of
   Enc(d) comes from one comb of it *)
let replace_item pub (it : Enc_item.scored) draws reply =
  let fields = item_fields it in
  let d, dus =
    match reply with
    | d :: dus when List.length dus = List.length fields -> (d, dus)
    | _ ->
      Proto_error.fail "Gadgets.replace_item: %d ciphertexts for %d fields" (List.length reply)
        (List.length fields)
  in
  let invs =
    try Modular.inv_many (List.map Paillier.to_nat dus) ~m:pub.Paillier.n2
    with Failure _ -> Proto_error.fail "Gadgets.replace_item: a reply ciphertext is not a unit"
  in
  let powers =
    Paillier.scalar_mul_each pub d
      (List.mapi (fun f _ -> Nat.add (fst draws.masks.(f)) draws.garbage.(f)) fields)
  in
  let fields =
    Array.of_list
      (List.map2
         (fun (x, inv) p -> Paillier.add pub (Paillier.add pub x (Paillier.of_nat pub inv)) p)
         (List.combine fields invs) powers)
  in
  let m = Array.length it.seen in
  let worst = fields.(0) in
  {
    Enc_item.ehl = Ehl.Ehl_plus.of_cells (Array.sub fields (1 + m) (Array.length fields - 1 - m));
    worst;
    best = worst;
    seen = Array.sub fields 1 m;
  }
