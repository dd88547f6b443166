open Bignum
open Crypto

type mode = Wire.dedup_mode = Replace | Eliminate

let protocol = "SecDedup"

let mask_item (s1 : Ctx.s1) (it : Enc_item.scored) =
  let n = s1.pub.Paillier.n in
  let cells = Ehl.Ehl_plus.length it.Enc_item.ehl in
  let alphas = Array.init cells (fun _ -> Rng.nat_below s1.rng n) in
  let beta = Rng.nat_below s1.rng n in
  let sigmas = Array.map (fun _ -> Rng.nat_below s1.rng n) it.Enc_item.seen in
  let masked : Enc_item.masked =
    {
      ehl =
        Ehl.Ehl_plus.mask s1.pub it.Enc_item.ehl
          (Array.map (fun a -> Paillier.encrypt s1.rng s1.pub a) alphas);
      worst = Paillier.add s1.pub it.Enc_item.worst (Paillier.encrypt s1.rng s1.pub beta);
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
      sigmas = Array.map (fun a -> Paillier.encrypt s1.rng s1.own_pub a) sigmas;
    }
  in
  (masked, pack)

(* Scores and seen bits are unmasked by [Gadgets.strip]: the ciphertext
   of [Paillier.sub c (encrypt mask)], without a negation. A new
   candidate's best score is its worst score until the next SecRefresh
   rewrites it. *)
let unmask_item (s1 : Ctx.s1) (it : Enc_item.masked) (pack : Enc_item.pack) =
  let n = s1.pub.Paillier.n in
  let dec c = Nat.rem (Paillier.decrypt s1.own_sk c) n in
  let alphas = Array.map dec pack.Enc_item.alphas in
  let beta = dec pack.Enc_item.beta in
  let sigmas = Array.map dec pack.Enc_item.sigmas in
  let strip = Gadgets.strip s1 in
  let worst = strip it.worst beta in
  {
    Enc_item.ehl =
      Ehl.Ehl_plus.mask s1.pub it.ehl
        (Array.map (fun a -> Paillier.encrypt s1.rng s1.pub (Nat.sub n (Nat.rem a n))) alphas);
    worst;
    best = worst;
    seen = Array.mapi (fun l u -> strip u sigmas.(l)) it.seen;
  }

(* Replace mode (a pick, DESIGN §3a item 15): per block one Dedup_pick
   carrying the matrix and every item's fields masked by fresh uniform
   rhos; S2 answers Enc(d) and Enc(d * u) per field, d marking a
   non-kept duplicate, and S1 rewrites every item in place: a kept item
   and a garbage one are both products with S2's fresh encryptions. All
   draws are made on the calling domain, block after block: per item
   its masks, then its garbage cells. *)
let replace (ctx : Ctx.t) arrs diffs =
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let draws = List.map (Array.map (Gadgets.draw_replace s1)) arrs in
  let items = Array.concat arrs and flat = Array.concat draws in
  let masked =
    Ctx.map ctx ~jobs:(Array.length items) (fun x -> Gadgets.mask_fields pub items.(x) flat.(x))
  in
  let sizes = List.map Array.length arrs in
  (* per item: Enc(d), then Enc(d * u) per field *)
  let replies =
    List.map2
      (fun arr resp ->
        let widths = List.map (fun it -> 1 + List.length (Gadgets.item_fields it)) (Array.to_list arr) in
        let want = List.fold_left ( + ) 0 widths in
        match resp with
        | Wire.Cts cts when List.length cts = want -> Gadgets.chunks widths (Array.of_list cts)
        | Wire.Cts cts ->
          Proto_error.fail "Sec_dedup.run_many: %d ciphertexts for %d" (List.length cts) want
        | _ -> Proto_error.fail "Sec_dedup.run_many: expected Cts")
      arrs
      (Ctx.rpc_batch ctx ~label:protocol
         (List.map2 (fun diffs items -> Wire.Dedup_pick { diffs; items }) diffs
            (Gadgets.chunks sizes masked)))
    |> List.concat |> Array.of_list
  in
  Gadgets.chunks sizes
    (Ctx.map ctx ~jobs:(Array.length items) (fun x ->
         Gadgets.replace_item pub items.(x) flat.(x) replies.(x)))

(* Eliminate mode (SecDupElim): per block one Dedup carrying the matrix
   and the masked items with their escrows; S2 drops the duplicates,
   re-masks and permutes the rest, and S1 strips the accumulated masks. *)
let eliminate (ctx : Ctx.t) arrs diffs =
  let s1 = ctx.Ctx.s1 in
  let masked = List.map (fun arr -> Array.to_list (Array.map (mask_item s1) arr)) arrs in
  List.map
    (function
      | Wire.Items out -> List.map (fun (it, pack) -> unmask_item s1 it pack) out
      | _ -> Proto_error.fail "Sec_dedup.run_many: expected Items")
    (Ctx.rpc_batch ctx ~label:protocol
       (List.map2 (fun diffs items -> Wire.Dedup { diffs; items }) diffs masked))

let run_many (ctx : Ctx.t) ~mode blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  Gadgets.pass_through blocks
    ~pass:(function [] -> Some [] | _ :: _ -> None)
    (fun live ->
      (* --- S1: permute each block and build its pairwise matrix on the
         permuted order --- *)
      let arrs = List.map Array.of_list live in
      List.iter (fun arr -> ignore (Rng.shuffle s1.rng arr)) arrs;
      (* every pair as positions in the blocks' concatenation *)
      let items = Array.concat arrs in
      let pairs =
        snd
          (List.fold_left_map
             (fun off arr ->
               let l = Array.length arr in
               (off + l, Array.map (fun (i, j) -> (off + i, off + j)) (Wire.pair_indices l)))
             0 arrs)
      in
      (* Each matrix entry is an independent blinded diff: draw every
         pair's blinds here, pair after pair, and fan the pairs of every
         block out together. An item is the first side of every pair it
         opens, so its cells are inverted once. *)
      let all_pairs = Array.concat pairs in
      let blinds =
        Array.map
          (fun (a, _) ->
            Ehl.Ehl_plus.draw_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub items.(a).Enc_item.ehl)
          all_pairs
      in
      let firsts =
        if all_pairs = [||] then [||]
        else Gadgets.invert s1.pub (Array.map (fun (it : Enc_item.scored) -> it.ehl) items)
      in
      let diffs =
        Gadgets.chunks (List.map Array.length pairs)
          (Ctx.map ctx ~jobs:(Array.length all_pairs) (fun idx ->
               let a, b = all_pairs.(idx) in
               Ehl.Ehl_plus.diff s1.pub ~blinds:blinds.(idx) firsts.(a) items.(b).Enc_item.ehl))
      in
      match mode with Replace -> replace ctx arrs diffs | Eliminate -> eliminate ctx arrs diffs)

let run ctx ~mode items = List.hd (run_many ctx ~mode [ items ])
