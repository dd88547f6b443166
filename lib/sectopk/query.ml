open Crypto
open Proto

type variant = Full | Elim | Batched of int

type options = {
  variant : variant;
  sort : Enc_sort.strategy;
  halting : [ `All | `KthOnly ];
  max_depth : int option;
}

let default_options = { variant = Full; sort = Enc_sort.Blinded; halting = `All; max_depth = None }

type result = {
  top : Enc_item.scored list;
  halting_depth : int;
  halted : bool;
  depth_seconds : float array;
}

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let rec drop n = function [] -> [] | _ :: rest as l -> if n = 0 then l else drop (n - 1) rest

(* The NRA bound test over the sorted encrypted list (Algorithm 3 lines
   10-12), completed with one unseen-object bound per shard that still
   has unseen rows: an unseen object lives in exactly one shard, so its
   best possible score is that shard's bottom-score sum. *)
let halting_test ctx ~halting ~k ~sorted ~unseen_bounds =
  if List.length sorted < k then false
  else begin
    let wk = (List.nth sorted (k - 1)).Enc_item.worst in
    let rest = drop k sorted in
    match halting with
    | `All ->
      (* every candidate test and every shard's unseen-bound test in one
         batch round: checkpoint rounds are flat in the shard count *)
      let pairs =
        List.map (fun (it : Enc_item.scored) -> (it.Enc_item.best, wk)) rest
        @ List.map (fun b -> (b, wk)) unseen_bounds
      in
      List.for_all Fun.id (Enc_compare.leq_many ctx pairs)
    | `KthOnly ->
      let leq = Enc_compare.leq ctx in
      (match rest with [] -> true | next :: _ -> leq next.Enc_item.best wk)
      && List.for_all (fun b -> leq b wk) unseen_bounds
  end

let run_sharded (ctx : Ctx.t) ers (tk : Scheme.token) options =
  let shards = Array.length ers in
  if shards = 0 then invalid_arg "Query.run: no shards";
  (* Collect per-query observability into the context's own collector
     unless an outer harness (bench) already installed one. *)
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span "SecQuery" @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let k = tk.Scheme.k in
  let attrs = Array.of_list tk.Scheme.attrs in
  let m = Array.length attrs in
  if m = 0 then invalid_arg "Query.run: empty token";
  Array.iter
    (fun er ->
      if Scheme.n_attrs er <> Scheme.n_attrs ers.(0) then
        invalid_arg "Query.run: shards disagree on attribute count")
    ers;
  let ns = Array.map Scheme.n_rows ers in
  let n_max = Array.fold_left max 0 ns in
  let check_every = match options.variant with Batched p -> max 1 p | Full | Elim -> 1 in
  let dedup_mode =
    match options.variant with Full -> Sec_dedup.Replace | Elim | Batched _ -> Sec_dedup.Eliminate
  in
  let limit = match options.max_depth with None -> n_max | Some d -> min d n_max in
  (* per-shard NRA state: bottom score per queried list, running list T *)
  let bottoms = Array.init shards (fun _ -> Array.make m None) in
  let t_lists = Array.make shards [] in
  let merge_rounds = ref 0 in
  let timings = ref [] in
  (* SecRefresh: rewrite every candidate's best score as its worst score
     plus the bottoms of the lists it is unseen in (DESIGN §3a.1). This is
     the only producer of [best] that any reader sees. One block per
     shard with candidates, all in the rounds of one; no call at all
     (and no span) when no shard has a candidate. *)
  let refresh () =
    match List.filter (fun j -> t_lists.(j) <> []) (List.init shards Fun.id) with
    | [] -> ()
    | js ->
      List.iter2
        (fun j t -> t_lists.(j) <- t)
        js
        (Sec_refresh.run_many ctx
           (List.map (fun j -> (t_lists.(j), Array.map Option.get bottoms.(j))) js))
  in
  let sort_all () = Enc_sort.sort ctx ~strategy:options.sort (List.concat (Array.to_list t_lists)) in
  let weighted_entry j li w depth =
    let e = Scheme.entry ers.(j) ~list:li ~depth in
    if w = 1 then e
    else { e with Enc_item.score = Paillier.scalar_mul pub e.Enc_item.score (Bignum.Nat.of_int w) }
  in
  let halted = ref false in
  (* the sorted merge of the last checkpoint, if it ran at the last depth *)
  let last_sorted = ref None in
  let depth = ref 0 in
  while (not !halted) && !depth < limit do
    let d = !depth in
    let (), dt =
      Obs.Timer.time @@ fun () ->
      Obs.span ("depth:" ^ string_of_int d) @@ fun () ->

    (* global depth barrier: every live shard advances to depth d *)
    let rows =
      List.filter (fun j -> d < ns.(j)) (List.init shards Fun.id)
      |> List.map (fun j ->
             let row = Array.map (fun (li, w) -> weighted_entry j li w d) attrs in
             Array.iteri (fun i e -> bottoms.(j).(i) <- Some e.Enc_item.score) row;
             (j, row))
    in
    (* Phase 1 — worst scores. The m per-list SecWorst instances of every
       live shard are independent, so they share one Equality and one
       Recover batch: two rounds per depth whatever m and the shard count.
       The seen vectors are 1 for the item's own list and SecWorst's
       equality indicators (recovered to Paillier form, riding the same
       Recover batch) for the others. Global instance index gi maps to
       (shard block gi / m, local list gi mod m). *)
    let indices = List.init m Fun.id in
    let owns = Array.make (List.length rows * m) (Gadgets.enc_zero s1) in
    let worsts =
      Array.of_list
        (Sec_worst.run_many ctx
           ~seen:(fun gi eq_bits ->
             let i = gi mod m in
             let eq_arr = Array.of_list eq_bits in
             owns.(gi) <- Paillier.encrypt s1.Ctx.rng pub Bignum.Nat.one;
             List.init m (fun l ->
                 if l = i then None
                 else
                   let e = if l < i then eq_arr.(l) else eq_arr.(l - 1) in
                   Some
                     ( e,
                       Paillier.encrypt s1.Ctx.rng pub Bignum.Nat.one,
                       Gadgets.enc_zero s1 ))
             |> List.filter_map Fun.id)
           (List.concat_map
              (fun (_, row) ->
                let others = Array.to_list row in
                List.map (fun i -> (row.(i), List.filteri (fun l _ -> l <> i) others)) indices)
              rows))
    in
    (* New candidates start with [best = worst]: every read of [best] (the
       halting test, the returned top-k) follows a [refresh]. *)
    let scored = Array.make shards [] in
    List.iteri
      (fun pos ((j, row) : int * Enc_item.entry array) ->
        scored.(j) <-
          List.map
            (fun i ->
              let gi = (pos * m) + i in
              let worst, _, picked_list = worsts.(gi) in
              let picked = Array.of_list picked_list in
              let seen =
                Array.init m (fun l ->
                    if l = i then owns.(gi) else if l < i then picked.(l) else picked.(l - 1))
              in
              { Enc_item.ehl = row.(i).Enc_item.ehl; worst; best = worst; seen })
            indices)
      rows;
    (* Phase 2 — shard-local dedup + merge into the shard's running list,
       one block per live shard and one round per step whatever the shard
       count. The row partition makes the SecUpdate grid block-diagonal:
       cross-shard pairs encode distinct objects by construction and never
       meet, so the per-depth O(|T|·|gamma|) work divides by the shard
       count. *)
    let live = List.map fst rows in
    let gammas = Sec_dedup.run_many ctx ~mode:dedup_mode (List.map (fun j -> scored.(j)) live) in
    List.iter2
      (fun j t -> t_lists.(j) <- t)
      live
      (Sec_update.run_many ctx ~mode:dedup_mode
         (List.map2 (fun j gamma -> (t_lists.(j), gamma)) live gammas));
    (* Phase 3 — checkpoint: refresh every shard's upper bounds against
       its own bottoms, then one global merge: sort the concatenation and
       run one NRA test with a per-shard unseen bound. Exhausted shards
       have no unseen objects and drop out of the bound test. *)
    let total = Array.fold_left (fun acc t -> acc + List.length t) 0 t_lists in
    let at_checkpoint = (d + 1) mod check_every = 0 || d = limit - 1 in
    last_sorted := None;
    if at_checkpoint && total >= k then begin
      refresh ();
      incr merge_rounds;
      Obs.span "ShardMerge" @@ fun () ->
      let sorted = sort_all () in
      let unseen_bounds =
        List.filter_map
          (fun j ->
            if d >= ns.(j) - 1 then None
            else
              Some
                (Array.fold_left
                   (fun acc b -> Paillier.add pub acc (Option.get b))
                   (Gadgets.enc_zero s1) bottoms.(j)))
          (List.init shards Fun.id)
      in
      last_sorted := Some sorted;
      halted :=
        d >= n_max - 1
        || halting_test ctx ~halting:options.halting ~k ~sorted ~unseen_bounds
    end
    in
    timings := dt :: !timings;
    incr depth
  done;
  (* stopped by max_depth with |T| < k at the cap: the best-effort list
     still needs its bounds refreshed before it is returned *)
  let sorted =
    match !last_sorted with
    | Some sorted -> sorted
    | None ->
      refresh ();
      sort_all ()
  in
  ( {
      top = take k sorted;
      halting_depth = !depth;
      halted = !halted;
      depth_seconds = Array.of_list (List.rev !timings);
    },
    !merge_rounds )

let run ctx er tk options = fst (run_sharded ctx [| er |] tk options)
