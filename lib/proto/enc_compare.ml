open Crypto

let protocol = "EncCompare"

let leq (ctx : Ctx.t) a b =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let coin = Rng.bool s1.rng in
  let d = if coin then Paillier.sub s1.pub a b else Paillier.sub s1.pub b a in
  let rho = Gadgets.blind_scalar s1 in
  let v = Paillier.scalar_mul s1.pub d rho in
  (* S2 returns the sign of the blinded difference *)
  let sign =
    match Ctx.rpc ctx ~label:protocol (Wire.Sign_of v) with
    | Wire.Sign sign -> sign
    | _ -> failwith "Enc_compare.leq: unexpected response"
  in
  (* S1: undo the coin *)
  if coin then sign <= 0 (* d = a - b : a <= b iff d <= 0 *)
  else sign >= 0 (* d = b - a : a <= b iff d >= 0 *)

(* Vectorized sign tests: every (already blinded) difference in one batch
   frame. S2 records one Comparison trace event per element, in order —
   exactly what per-element Sign_of rpcs record. *)
let signs_of (ctx : Ctx.t) vs =
  let resps =
    Ctx.rpc_batch ctx ~label:protocol
      (Array.to_list (Array.map (fun v -> Wire.Sign_of v) vs))
  in
  Array.of_list
    (List.map
       (function
         | Wire.Sign sign -> sign
         | _ -> failwith "Enc_compare.signs_of: unexpected response")
       resps)

(* Batched [leq]: per-pair coin and blinding drawn in index order (the
   draws [leq] makes), then one signs_of round for the whole depth. *)
let leq_many (ctx : Ctx.t) pairs =
  match pairs with
  | [] -> []
  | pairs ->
    Obs.span protocol @@ fun () ->
    let s1 = ctx.Ctx.s1 in
    let prepared =
      List.map
        (fun (a, b) ->
          let coin = Rng.bool s1.rng in
          let d = if coin then Paillier.sub s1.pub a b else Paillier.sub s1.pub b a in
          let rho = Gadgets.blind_scalar s1 in
          (coin, Paillier.scalar_mul s1.pub d rho))
        pairs
    in
    let signs = signs_of ctx (Array.of_list (List.map snd prepared)) in
    List.mapi
      (fun i (coin, _) -> if coin then signs.(i) <= 0 else signs.(i) >= 0)
      prepared
