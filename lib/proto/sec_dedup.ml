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

let run_many (ctx : Ctx.t) ~mode blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  Gadgets.pass_through blocks
    ~pass:(function [] -> Some [] | _ :: _ -> None)
    (fun live ->
      (* --- S1: permute each block, build its pairwise matrix on the
         permuted order, mask every item; block after block --- *)
      let arrs = List.map Array.of_list live in
      List.iter (fun arr -> ignore (Rng.shuffle s1.rng arr)) arrs;
      let pairs =
        List.map
          (fun arr ->
            Array.map (fun (i, j) -> (arr.(i), arr.(j))) (Wire.pair_indices (Array.length arr)))
          arrs
      in
      (* Each matrix entry is an independent blinded diff: fan the pairs
         of every block out on the pool together (pure S1 work). *)
      let all_pairs = Array.concat pairs in
      let diffs =
        Gadgets.chunks (List.map Array.length pairs)
          (Ctx.parallel ctx ~jobs:(Array.length all_pairs) (fun sub1 idx ->
               let a, b = all_pairs.(idx) in
               Ehl.Ehl_plus.diff ?blind_bits:sub1.blind_bits sub1.rng sub1.pub a.Enc_item.ehl
                 b.Enc_item.ehl))
      in
      let masked = List.map (fun arr -> Array.to_list (Array.map (mask_item s1) arr)) arrs in
      (* --- one round trip, one Dedup request per block: S2 decrypts
         each matrix, replaces or drops duplicates, layers its own masks
         and a second permutation --- *)
      let outs =
        List.map
          (function Wire.Items out -> out | _ -> failwith "Sec_dedup.run_many: unexpected response")
          (Ctx.rpc_batch ctx ~label:protocol
             (List.map2 (fun diffs items -> Wire.Dedup { mode; diffs; items }) diffs masked))
      in
      (* --- S1: strip the accumulated masks --- *)
      List.map (List.map (fun (it, pack) -> unmask_item s1 it pack)) outs)

let run ctx ~mode items = List.hd (run_many ctx ~mode [ items ])
