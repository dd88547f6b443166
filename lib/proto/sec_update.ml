open Bignum
open Crypto

let protocol = "SecUpdate"

(* E2(sum of ts) — at most one t is 1 by the caller's invariant. *)
let e2_sum dj ts =
  match ts with
  | [] -> invalid_arg "Sec_update.e2_sum: empty"
  | t :: rest -> List.fold_left (Damgard_jurik.add dj) t rest

let run (ctx : Ctx.t) ~mode ~t_list ~gamma =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let dj = s1.djpub in
  match (t_list, gamma) with
  | [], g -> g
  | t, [] -> t
  | _ ->
    let olds = Array.of_list t_list in
    let news = Array.of_list gamma in
    (* both sides of the grid are permuted afresh: a stable T order would
       let S2 follow one object's column across depths *)
    ignore (Rng.shuffle s1.rng olds);
    ignore (Rng.shuffle s1.rng news);
    let n_old = Array.length olds and n_new = Array.length news in
    (* one equality round for the whole |gamma| x |T| grid, row-major.
       The blinds are drawn here, in the grid's historical (reverse)
       order; the multi-exponentiations fan out. *)
    let blinds = ref [] in
    for i = n_new - 1 downto 0 do
      for _ = n_old - 1 downto 0 do
        blinds :=
          Ehl.Ehl_plus.draw_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub
            news.(i).Enc_item.ehl
          :: !blinds
      done
    done;
    let blinds = Array.of_list !blinds in
    let diffs =
      Ctx.map ctx ~jobs:(n_new * n_old) (fun c ->
          Ehl.Ehl_plus.diff_with s1.pub ~blinds:blinds.(c)
            news.(c / n_old).Enc_item.ehl olds.(c mod n_old).Enc_item.ehl)
    in
    let ts = Array.of_list (Gadgets.equality_round ctx ~protocol (Array.to_list diffs)) in
    let t_of i j = ts.((i * n_old) + j) in
    let zero = Gadgets.enc_zero s1 in
    (* --- old entries: W'_j = W_j + sum_i t_ij * W_i, seen vectors
       merged. The per-entry selections (worst delta, per-slot seen merge)
       are all independent E2 accumulators: every RecoverEnc of the whole
       T-list travels in one batch round. Best scores are not carried:
       SecRefresh rewrites them from worst and seen before any read. *)
    let e2_one = Damgard_jurik.trivial dj Nat.one in
    (* E2(1 - sum_i t_ij) per entry: a DJ negation each, deterministic *)
    let no_matches =
      Ctx.map ctx ~jobs:n_old (fun j ->
          Damgard_jurik.sub dj e2_one (e2_sum dj (List.init n_new (fun i -> t_of i j))))
    in
    let selections =
      Array.mapi
        (fun j (old : Enc_item.scored) ->
          let no_match = no_matches.(j) in
          (* each selection is sum_i t_ij * x_i (+ no_match * default): the
             multi-exponentiation spec is handed to RecoverEnc, which folds
             its blinding into the same simultaneous pass *)
          let select default xs =
            (no_match, default) :: List.init n_new (fun i -> (t_of i j, xs i))
          in
          let w_sel = select zero (fun i -> news.(i).Enc_item.worst) in
          (* seen-vector merge: u'_{j,l} = u_{j,l} + sum_i t_ij * u_{i,l}
             (at most one i matches, so the inner selection is exclusive) *)
          let seen_sels =
            Array.mapi
              (fun l _ -> select zero (fun i -> news.(i).Enc_item.seen.(l)))
              old.Enc_item.seen
          in
          w_sel :: Array.to_list seen_sels)
        olds
    in
    let flat = List.concat (Array.to_list selections) in
    let recovered = Array.of_list (Gadgets.recover_enc_specs ctx ~protocol flat) in
    let m_seen = match t_list with it :: _ -> Array.length it.Enc_item.seen | [] -> 0 in
    let stride = m_seen + 1 in
    let updated_olds =
      Array.mapi
        (fun j (old : Enc_item.scored) ->
          let base = j * stride in
          let w_delta = recovered.(base) in
          let seen' =
            Array.mapi
              (fun l u -> Paillier.add s1.pub u recovered.(base + 1 + l))
              old.Enc_item.seen
          in
          {
            old with
            Enc_item.worst = Paillier.add s1.pub old.Enc_item.worst w_delta;
            seen = seen';
          })
        olds
    in
    (* --- appended copies of new items --- *)
    let matched_e2 =
      Array.init n_new (fun i -> e2_sum dj (List.init n_old (fun j -> t_of i j)))
    in
    (match mode with
    | Sec_dedup.Replace ->
      (* obliviously rewrite matched copies into sentinel garbage; the
         per-cell/score/seen choices of every appended item are
         independent, so the whole fan-out is one select_recover batch *)
      let z = Ctx.sentinel_z s1 in
      let choices =
        Array.mapi
          (fun i (nw : Enc_item.scored) ->
            let t = matched_e2.(i) in
            let n = s1.pub.Paillier.n in
            let cell_choices =
              Array.map
                (fun cell ->
                  let rand = Paillier.encrypt s1.rng s1.pub (Rng.nat_below s1.rng n) in
                  (t, rand, cell))
                (Ehl.Ehl_plus.cells nw.Enc_item.ehl)
            in
            let enc_z = Paillier.encrypt s1.rng s1.pub z in
            (* sentinel copies get an all-ones seen vector so their best
               score stays -1 under the checkpoint refresh *)
            let seen_choices =
              Array.map
                (fun u -> (t, Paillier.encrypt s1.rng s1.pub Nat.one, u))
                nw.Enc_item.seen
            in
            Array.to_list cell_choices
            @ [ (t, enc_z, nw.Enc_item.worst) ]
            @ Array.to_list seen_choices)
          news
      in
      let flat_choices = List.concat (Array.to_list choices) in
      let picked =
        Array.of_list (Gadgets.select_recover_many ctx ~protocol flat_choices)
      in
      let cursor = ref 0 in
      let take () =
        let v = picked.(!cursor) in
        incr cursor;
        v
      in
      let updated_news =
        Array.map
          (fun (nw : Enc_item.scored) ->
            let cells =
              Array.map (fun _ -> take ()) (Ehl.Ehl_plus.cells nw.Enc_item.ehl)
            in
            let worst = take () in
            let seen = Array.map (fun _ -> take ()) nw.Enc_item.seen in
            { Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; worst; best = worst; seen })
          news
      in
      Array.to_list updated_olds @ Array.to_list updated_news
    | Sec_dedup.Eliminate ->
      (* S2 reveals which (permuted) appended items matched; they are
         dropped — the SecDupElim leakage (UP^d) *)
      let flags_ct =
        Array.map
          (fun c ->
            Damgard_jurik.rerandomize_with dj ~noise:(Noise_pool.take s1.Ctx.djnoise) c)
          matched_e2
      in
      let flags =
        match
          Ctx.rpc ctx ~label:"SecDupElim" (Wire.Dup_flags (Array.to_list flags_ct))
        with
        | Wire.Flags flags -> Array.of_list flags
        | _ -> failwith "Sec_update.run: unexpected response"
      in
      let fresh =
        Array.to_list news
        |> List.mapi (fun i nw -> if flags.(i) then None else Some nw)
        |> List.filter_map Fun.id
      in
      Array.to_list updated_olds @ fresh)
