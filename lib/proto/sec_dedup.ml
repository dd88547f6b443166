open Bignum
open Crypto

type mode = Wire.dedup_mode = Replace | Eliminate

let protocol = "SecDedup"

let mask_item (s1 : Ctx.s1) (it : Enc_item.scored) =
  let n = s1.pub.Paillier.n in
  let cells = Ehl.Ehl_plus.length it.Enc_item.ehl in
  let alphas = Array.init cells (fun _ -> Rng.nat_below s1.rng n) in
  let beta = Rng.nat_below s1.rng n in
  let gamma = Rng.nat_below s1.rng n in
  let sigmas = Array.map (fun _ -> Rng.nat_below s1.rng n) it.Enc_item.seen in
  let masked : Enc_item.scored =
    {
      ehl =
        Ehl.Ehl_plus.mask s1.pub it.Enc_item.ehl
          (Array.map (fun a -> Paillier.encrypt s1.rng s1.pub a) alphas);
      worst = Paillier.add s1.pub it.Enc_item.worst (Paillier.encrypt s1.rng s1.pub beta);
      best = Paillier.add s1.pub it.Enc_item.best (Paillier.encrypt s1.rng s1.pub gamma);
      seen =
        Array.mapi
          (fun l u -> Paillier.add s1.pub u (Paillier.encrypt s1.rng s1.pub sigmas.(l)))
          it.Enc_item.seen;
    }
  in
  let pack : Enc_item.pack =
    {
      alphas = Array.map (fun a -> Paillier.encrypt s1.rng s1.own_pub a) alphas;
      beta = Paillier.encrypt s1.rng s1.own_pub beta;
      gamma = Paillier.encrypt s1.rng s1.own_pub gamma;
      sigmas = Array.map (fun a -> Paillier.encrypt s1.rng s1.own_pub a) sigmas;
    }
  in
  (masked, pack)

let unmask_item (s1 : Ctx.s1) (it : Enc_item.scored) (pack : Enc_item.pack) =
  let n = s1.pub.Paillier.n in
  let dec c = Nat.rem (Paillier.decrypt s1.own_sk c) n in
  let alphas = Array.map dec pack.Enc_item.alphas in
  let beta = dec pack.Enc_item.beta and gamma = dec pack.Enc_item.gamma in
  let sigmas = Array.map dec pack.Enc_item.sigmas in
  {
    Enc_item.ehl =
      Ehl.Ehl_plus.mask s1.pub it.Enc_item.ehl
        (Array.map (fun a -> Paillier.encrypt s1.rng s1.pub (Nat.sub n (Nat.rem a n))) alphas);
    worst = Paillier.sub s1.pub it.Enc_item.worst (Paillier.encrypt s1.rng s1.pub beta);
    best = Paillier.sub s1.pub it.Enc_item.best (Paillier.encrypt s1.rng s1.pub gamma);
    seen =
      Array.mapi
        (fun l u -> Paillier.sub s1.pub u (Paillier.encrypt s1.rng s1.pub sigmas.(l)))
        it.Enc_item.seen;
  }

let run (ctx : Ctx.t) ~mode items =
  Obs.span protocol @@ fun () ->
  match items with
  | [] -> []
  | _ ->
    let s1 = ctx.Ctx.s1 in
    let l = List.length items in
    let arr = Array.of_list items in
    (* --- S1: permute, build the pairwise matrix on the permuted order,
       mask every item --- *)
    ignore (Rng.shuffle s1.rng arr);
    let pair_idx = Wire.pair_indices l in
    (* Each matrix entry is an independent blinded diff: fan the
       l*(l-1)/2 pairs out on the pool (pure S1 work). *)
    let diffs =
      Ctx.parallel ctx ~jobs:(Array.length pair_idx) (fun sub1 idx ->
          let i, j = pair_idx.(idx) in
          Ehl.Ehl_plus.diff ?blind_bits:sub1.blind_bits sub1.rng sub1.pub
            arr.(i).Enc_item.ehl arr.(j).Enc_item.ehl)
    in
    let masked = Array.map (mask_item s1) arr in
    (* --- one round trip: S2 decrypts the matrix, replaces or drops
       duplicates, layers its own masks and a second permutation --- *)
    let out =
      match
        Ctx.rpc ctx ~label:protocol
          (Wire.Dedup
             { mode; diffs = Array.to_list diffs; items = Array.to_list masked })
      with
      | Wire.Items out -> out
      | _ -> failwith "Sec_dedup.run: unexpected response"
    in
    (* --- S1: strip the accumulated masks --- *)
    List.map (fun (it, pack) -> unmask_item s1 it pack) out
