open Bignum
open Crypto

let protocol = "SecUpdate"

(* One block's |gamma| x |T| grid and S1's draws for it, all made on the
   calling domain. Both sides are permuted afresh (a stable T order
   would let S2 follow one object's column across depths), then the
   equality blinds are drawn in the grid's historical (reverse) order
   ([blinds] is row-major, cell (i, j) at i * |T| + j), then each new
   item's masks: in Replace mode every field with its garbage
   ([Gadgets.draw_replace]), in Eliminate mode only the merged ones
   (worst and seen). Each new item's cells are inverted once, for the
   |T| diffs of its row. *)
type grid = {
  olds : Enc_item.scored array;
  news : Enc_item.scored array;
  inv_news : Ehl.Ehl_plus.inverted array;
  blinds : Nat.t array array;
  draws : Gadgets.replace_draws array;
}

let merged_fields (it : Enc_item.scored) = 1 + Array.length it.seen

let draw_grid (s1 : Ctx.s1) ~mode (t_list, gamma) =
  let olds = Array.of_list t_list and news = Array.of_list gamma in
  ignore (Rng.shuffle s1.rng olds);
  ignore (Rng.shuffle s1.rng news);
  let blinds = ref [] in
  for i = Array.length news - 1 downto 0 do
    for _ = Array.length olds - 1 downto 0 do
      blinds :=
        Ehl.Ehl_plus.draw_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub news.(i).Enc_item.ehl
        :: !blinds
    done
  done;
  let draws =
    Array.map
      (fun it ->
        match mode with
        | Sec_dedup.Replace -> Gadgets.draw_replace s1 it
        | Sec_dedup.Eliminate ->
          { Gadgets.masks = Array.init (merged_fields it) (fun _ -> Gadgets.draw_mask s1);
            garbage = [||] })
      news
  in
  let inv_news = Gadgets.invert s1.pub (Array.map (fun (it : Enc_item.scored) -> it.ehl) news) in
  { olds; news; inv_news; blinds = Array.of_list !blinds; draws }

(* [(g, x)] for every [x] below [count g], grid after grid: the items of
   one fan-out over every block *)
let across grids count =
  Array.of_list (List.concat_map (fun g -> List.init (count g) (fun x -> (g, x))) grids)

(* The reply to one block's Update_pick, cut into its parts: per old
   entry its merged fields' sums, the grid's Enc(t_ij) row-major, per
   new item (Replace) Enc(d) and Enc(d * u) per field, and (Eliminate)
   the flags. *)
type picked = {
  sums : Paillier.ciphertext array array;
  ts : Paillier.ciphertext array;
  replies : Paillier.ciphertext list array;
  flags : bool array;
}

let cut ~mode g resp =
  let n_old = Array.length g.olds and n_new = Array.length g.news in
  let f = merged_fields g.news.(0) in
  let widths =
    match mode with
    | Sec_dedup.Replace -> List.init n_new (fun i -> 1 + Array.length g.draws.(i).masks)
    | Sec_dedup.Eliminate -> []
  in
  let want = (n_old * f) + (n_new * n_old) + List.fold_left ( + ) 0 widths in
  let want_flags = match mode with Sec_dedup.Replace -> 0 | Sec_dedup.Eliminate -> n_new in
  match resp with
  | Wire.Picked { cts; flags }
    when List.length cts = want && List.length flags = want_flags ->
    let cts = Array.of_list cts in
    let news = Array.sub cts ((n_old * f) + (n_new * n_old)) (want - (n_old * f) - (n_new * n_old)) in
    {
      sums = Array.init n_old (fun j -> Array.sub cts (j * f) f);
      ts = Array.sub cts (n_old * f) (n_new * n_old);
      replies = Array.of_list (Gadgets.chunks widths news);
      flags = Array.of_list flags;
    }
  | Wire.Picked { cts; flags } ->
    Proto_error.fail "Sec_update.run_many: %d ciphertexts and %d flags for %d and %d"
      (List.length cts) (List.length flags) want want_flags
  | _ -> Proto_error.fail "Sec_update.run_many: expected Picked"

let run_many (ctx : Ctx.t) ~mode blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let n = pub.Paillier.n in
  Gadgets.pass_through blocks
    ~pass:(function [], g -> Some g | t, [] -> Some t | _ :: _, _ :: _ -> None)
    (fun live ->
      let grids = List.map (draw_grid s1 ~mode) live in
      (* the multi-exponentiations of every block's grid and masks fan
         out together *)
      let cells = across grids (fun g -> Array.length g.blinds) in
      let diffs =
        Ctx.map ctx ~jobs:(Array.length cells) (fun x ->
            let g, c = cells.(x) in
            let n_old = Array.length g.olds in
            Ehl.Ehl_plus.diff pub ~blinds:g.blinds.(c) g.inv_news.(c / n_old)
              g.olds.(c mod n_old).Enc_item.ehl)
      in
      let news = across grids (fun g -> Array.length g.news) in
      let masked =
        Ctx.map ctx ~jobs:(Array.length news) (fun x ->
            let g, i = news.(x) in
            let it = g.news.(i) in
            let fields = Gadgets.mask_fields pub it g.draws.(i) in
            let f = merged_fields it in
            (List.filteri (fun k _ -> k < f) fields, List.filteri (fun k _ -> k >= f) fields))
      in
      (* one Update_pick per block, all in one round *)
      let per_block count arr = Gadgets.chunks (List.map count grids) arr in
      let requests =
        List.map2
          (fun diffs rows ->
            let merged, cells = List.split rows in
            let cells = match mode with Sec_dedup.Replace -> cells | Sec_dedup.Eliminate -> [] in
            Wire.Update_pick { mode; diffs; merged; cells })
          (per_block (fun g -> Array.length g.blinds) diffs)
          (per_block (fun g -> Array.length g.news) masked)
      in
      let grids =
        List.map2 (fun g resp -> (g, cut ~mode g resp)) grids
          (Ctx.rpc_batch ctx ~label:protocol requests)
      in
      (* --- old entries: field'_jf = field_jf * S_jf * prod_i
         Enc(t_ij)^(n - rho_if), since sum_i t_ij * x_if =
         sum_i t_ij * u_if - sum_i t_ij * rho_if; one row per field over
         the Enc(t_ij) of column j, whose window tables every row
         shares. Best scores are not carried: SecRefresh rewrites them
         from worst and seen before any read. *)
      let olds = across grids (fun (g, _) -> Array.length g.olds) in
      let updated_olds =
        Ctx.map ctx ~jobs:(Array.length olds) (fun x ->
            let (g, p), j = olds.(x) in
            let old = g.olds.(j) in
            let n_old = Array.length g.olds in
            let sums =
              Paillier.scalar_mul_rows pub
                (Array.init (Array.length g.news) (fun i -> p.ts.((i * n_old) + j)))
                (Array.init (merged_fields old) (fun f ->
                     Array.map (fun (d : Gadgets.replace_draws) -> Nat.sub n (fst d.masks.(f))) g.draws))
            in
            let field f x = Paillier.add pub (Paillier.add pub x p.sums.(j).(f)) sums.(f) in
            { old with Enc_item.worst = field 0 old.worst; seen = Array.mapi (fun l u -> field (l + 1) u) old.seen })
      in
      let updated_news =
        match mode with
        | Sec_dedup.Replace ->
          (* every appended item is rewritten in place: a matched copy
             into garbage (random EHL cells, worst Z = -1, all-ones seen,
             so its refreshed best is -1 too), the others into fresh
             encryptions of themselves *)
          let news = across grids (fun (g, _) -> Array.length g.news) in
          Gadgets.chunks
            (List.map (fun (g, _) -> Array.length g.news) grids)
            (Ctx.map ctx ~jobs:(Array.length news) (fun x ->
                 let (g, p), i = news.(x) in
                 Gadgets.replace_item pub g.news.(i) g.draws.(i) p.replies.(i)))
        | Sec_dedup.Eliminate ->
          (* S2 revealed which (permuted) appended items matched; they
             are dropped: the SecDupElim leakage (UP^d) *)
          List.map
            (fun (g, p) -> List.filteri (fun i _ -> not p.flags.(i)) (Array.to_list g.news))
            grids
      in
      List.map2 (fun olds news -> olds @ news)
        (Gadgets.chunks (List.map (fun (g, _) -> Array.length g.olds) grids) updated_olds)
        updated_news)

let run ctx ~mode ~t_list ~gamma = List.hd (run_many ctx ~mode [ (t_list, gamma) ])
