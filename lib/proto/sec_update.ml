open Bignum
open Crypto

let protocol = "SecUpdate"

(* E2(sum of ts) — at most one t is 1 by the caller's invariant. *)
let e2_sum dj ts =
  match ts with
  | [] -> invalid_arg "Sec_update.e2_sum: empty"
  | t :: rest -> List.fold_left (Damgard_jurik.add dj) t rest

(* One block's |gamma| x |T| grid. Both sides are permuted afresh (a
   stable T order would let S2 follow one object's column across depths)
   and the equality blinds are drawn here, in the grid's historical
   (reverse) order; [blinds] is row-major, cell (i, j) at i * |T| + j. *)
type grid = {
  olds : Enc_item.scored array;
  news : Enc_item.scored array;
  blinds : Nat.t array array;
}

let draw_grid (s1 : Ctx.s1) (t_list, gamma) =
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
  { olds; news; blinds = Array.of_list !blinds }

(* [(g, x)] for every [x] below [count g], grid after grid: the items of
   one fan-out over every block *)
let across grids count =
  Array.of_list (List.concat_map (fun g -> List.init (count g) (fun x -> (g, x))) grids)

(* successive elements of [arr], one per call: a batch's results read
   back in the order its requests were built *)
let reader arr =
  let next = ref 0 in
  fun () ->
    let v = arr.(!next) in
    incr next;
    v

let run_many (ctx : Ctx.t) ~mode blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let dj = s1.djpub in
  Gadgets.pass_through blocks
    ~pass:(function [], g -> Some g | t, [] -> Some t | _ :: _, _ :: _ -> None)
    (fun live ->
      let grids = List.map (draw_grid s1) live in
      (* one equality round for every block's grid, one Equality request
         per block; the multi-exponentiations of all blocks fan out
         together *)
      let cells = across grids (fun g -> Array.length g.blinds) in
      let diffs =
        Ctx.map ctx ~jobs:(Array.length cells) (fun x ->
            let g, c = cells.(x) in
            let n_old = Array.length g.olds in
            Ehl.Ehl_plus.diff_with s1.pub ~blinds:g.blinds.(c) g.news.(c / n_old).Enc_item.ehl
              g.olds.(c mod n_old).Enc_item.ehl)
      in
      let ts =
        Gadgets.equality_round_many ctx ~protocol
          (Gadgets.chunks (List.map (fun g -> Array.length g.blinds) grids) diffs)
      in
      let grids = List.map2 (fun g ts -> (g, Array.of_list ts)) grids ts in
      let t_of (g, ts) i j = ts.((i * Array.length g.olds) + j) in
      let zero = Paillier.to_nat (Gadgets.enc_zero s1) in
      let n2 = s1.pub.Paillier.n2 in
      (* --- old entries: W'_j = W_j + sum_i t_ij * W_i, seen vectors
         merged. The per-entry selections (worst delta, per-slot seen
         merge) are all independent E2 accumulators: every RecoverEnc of
         every block's T-list travels in one batch round. Best scores are
         not carried: SecRefresh rewrites them from worst and seen before
         any read. *)
      let olds = across grids (fun (g, _) -> Array.length g.olds) in
      let selections =
        Array.map
          (fun (((g, _) as gt), j) ->
            let old = g.olds.(j) in
            (* each selection is default + sum_i t_ij * (x_i - default):
               x_i when t_ij = 1, the default when no t_ij is (at most one
               is). RecoverEnc folds its blinding into the same
               simultaneous pass *)
            let select default xs =
              {
                Gadgets.offset = default;
                terms =
                  List.init (Array.length g.news) (fun i ->
                      (t_of gt i j, Modular.sub (Paillier.to_nat (xs i)) default ~m:n2));
              }
            in
            let w_sel = select zero (fun i -> g.news.(i).Enc_item.worst) in
            (* seen-vector merge: u'_{j,l} = u_{j,l} + sum_i t_ij * u_{i,l}
               (at most one i matches, so the inner selection is exclusive) *)
            let seen_sels =
              Array.mapi
                (fun l _ -> select zero (fun i -> g.news.(i).Enc_item.seen.(l)))
                old.Enc_item.seen
            in
            w_sel :: Array.to_list seen_sels)
          olds
      in
      let take =
        reader
          (Array.of_list
             (Gadgets.recover_enc_specs ctx ~protocol (List.concat (Array.to_list selections))))
      in
      let updated_olds =
        List.map
          (fun (g, _) ->
            Array.map
              (fun (old : Enc_item.scored) ->
                let w_delta = take () in
                let seen' =
                  Array.map (fun u -> Paillier.add s1.pub u (take ())) old.Enc_item.seen
                in
                {
                  old with
                  Enc_item.worst = Paillier.add s1.pub old.Enc_item.worst w_delta;
                  seen = seen';
                })
              g.olds)
          grids
      in
      (* --- appended copies of new items --- *)
      let matched_e2 =
        List.map
          (fun ((g, _) as gt) ->
            Array.init (Array.length g.news) (fun i ->
                e2_sum dj (List.init (Array.length g.olds) (fun j -> t_of gt i j))))
          grids
      in
      let updated_news =
        match mode with
        | Sec_dedup.Replace ->
          (* obliviously rewrite matched copies into sentinel garbage; the
             per-cell/score/seen choices of every appended item of every
             block are independent, so the whole fan-out is one
             select_recover_many batch *)
          let z = Ctx.sentinel_z s1 in
          let n = s1.pub.Paillier.n in
          let choices =
            List.map2
              (fun (g, _) matched ->
                Array.mapi
                  (fun i (nw : Enc_item.scored) ->
                    let t = matched.(i) in
                    let cell_choices =
                      Array.map
                        (fun cell ->
                          let rand = Paillier.encrypt s1.rng s1.pub (Rng.nat_below s1.rng n) in
                          (t, rand, cell))
                        (Ehl.Ehl_plus.cells nw.Enc_item.ehl)
                    in
                    let enc_z = Paillier.encrypt s1.rng s1.pub z in
                    (* sentinel copies get an all-ones seen vector so their
                       best score stays -1 under the checkpoint refresh *)
                    let seen_choices =
                      Array.map
                        (fun u -> (t, Paillier.encrypt s1.rng s1.pub Nat.one, u))
                        nw.Enc_item.seen
                    in
                    Array.to_list cell_choices
                    @ [ (t, enc_z, nw.Enc_item.worst) ]
                    @ Array.to_list seen_choices)
                  g.news)
              grids matched_e2
          in
          let take =
            reader
              (Array.of_list
                 (Gadgets.select_recover_many ctx ~protocol
                    (List.concat_map (fun c -> List.concat (Array.to_list c)) choices)))
          in
          List.map
            (fun (g, _) ->
              Array.to_list
                (Array.map
                   (fun (nw : Enc_item.scored) ->
                     let cells =
                       Array.map (fun _ -> take ()) (Ehl.Ehl_plus.cells nw.Enc_item.ehl)
                     in
                     let worst = take () in
                     let seen = Array.map (fun _ -> take ()) nw.Enc_item.seen in
                     { Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; worst; best = worst; seen })
                   g.news))
            grids
        | Sec_dedup.Eliminate ->
          (* S2 reveals which (permuted) appended items matched, one
             Dup_flags request per block; they are dropped — the
             SecDupElim leakage (UP^d) *)
          let flags_ct =
            List.map
              (Array.map (fun c ->
                   Damgard_jurik.rerandomize_with dj ~noise:(Noise_pool.take s1.Ctx.djnoise) c))
              matched_e2
          in
          List.map2
            (fun (g, _) resp ->
              match resp with
              | Wire.Flags flags ->
                let flags = Array.of_list flags in
                List.filteri (fun i _ -> not flags.(i)) (Array.to_list g.news)
              | _ -> failwith "Sec_update.run_many: unexpected response")
            grids
            (Ctx.rpc_batch ctx ~label:"SecDupElim"
               (List.map (fun cts -> Wire.Dup_flags (Array.to_list cts)) flags_ct))
      in
      List.map2 (fun olds news -> Array.to_list olds @ news) updated_olds updated_news)

let run ctx ~mode ~t_list ~gamma = List.hd (run_many ctx ~mode [ (t_list, gamma) ])
