open Bignum
open Crypto
open Proto

type joined = { score : Paillier.ciphertext; attrs : Paillier.ciphertext array }

let protocol = "SecJoin"

let combine (ctx : Ctx.t) (e1 : Join_scheme.enc_relation) (e2 : Join_scheme.enc_relation)
    (tk : Join_scheme.token) =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let pairs = ref [] in
  Array.iter
    (fun (t1 : Join_scheme.enc_tuple) ->
      Array.iter (fun (t2 : Join_scheme.enc_tuple) -> pairs := (t1, t2) :: !pairs) e2.Join_scheme.tuples)
    e1.Join_scheme.tuples;
  let pairs = Array.of_list !pairs in
  ignore (Rng.shuffle s1.Ctx.rng pairs);
  let jobs = Array.length pairs in
  (* one equality round over the whole grid: the join predicate bits.
     The blinded diffs are per-pair independent — fan them out. *)
  let diffs =
    Array.to_list
      (Ctx.parallel ctx ~jobs (fun sub1 idx ->
           let (t1 : Join_scheme.enc_tuple), (t2 : Join_scheme.enc_tuple) = pairs.(idx) in
           let ehl_l, _ = t1.Join_scheme.cells.(tk.Join_scheme.join_left) in
           let ehl_r, _ = t2.Join_scheme.cells.(tk.Join_scheme.join_right) in
           Ehl.Ehl_plus.diff ?blind_bits:sub1.Ctx.blind_bits sub1.Ctx.rng pub ehl_l ehl_r))
  in
  let ts = Array.of_list (Gadgets.equality_round ctx ~protocol diffs) in
  let zero = Gadgets.enc_zero s1 in
  (* tuple fan-out: every pair needs 1 + |attrs| selections, each a DJ
     exponentiation — the heaviest loop of the join. Every select and
     RecoverEnc of the whole grid is one select_recover_many round. *)
  let per_pair =
    List.map2
      (fun t ((t1 : Join_scheme.enc_tuple), (t2 : Join_scheme.enc_tuple)) ->
        let _, score_l = t1.Join_scheme.cells.(tk.Join_scheme.score_left) in
        let _, score_r = t2.Join_scheme.cells.(tk.Join_scheme.score_right) in
        (* s = t * (score_l + score_r + 1): the +1 keeps all-zero scores
           of genuine matches alive through SecFilter *)
        let total =
          Paillier.add pub (Paillier.add pub score_l score_r)
            (Paillier.encrypt s1.Ctx.rng pub Nat.one)
        in
        let carried =
          Array.append
            (Array.map snd t1.Join_scheme.cells)
            (Array.map snd t2.Join_scheme.cells)
        in
        (t, total, zero) :: Array.to_list (Array.map (fun x -> (t, x, zero)) carried))
      (Array.to_list ts) (Array.to_list pairs)
  in
  let picked =
    Array.of_list (Gadgets.select_recover_many ctx ~protocol (List.concat per_pair))
  in
  let cursor = ref 0 in
  List.map
    (fun choices ->
      let width = List.length choices in
      let score = picked.(!cursor) in
      let attrs = Array.init (width - 1) (fun a -> picked.(!cursor + 1 + a)) in
      cursor := !cursor + width;
      { score; attrs })
    per_pair

let filter_protocol = "SecFilter"

let filter (ctx : Ctx.t) tuples =
  Obs.span filter_protocol @@ fun () ->
  match tuples with
  | [] -> []
  | _ ->
    let s1 = ctx.Ctx.s1 in
    let pub = s1.Ctx.pub in
    let n = pub.Paillier.n in
    let own = s1.Ctx.own_pub in
    (* --- S1: multiplicative blind on scores (0 stays 0), additive blind
       on attributes; randomness escrowed under S1's own key --- *)
    let blinded =
      List.map
        (fun { score; attrs } ->
          let r = Rng.unit_mod s1.Ctx.rng n in
          let rs = Array.map (fun _ -> Rng.nat_below s1.Ctx.rng n) attrs in
          let score' = Paillier.scalar_mul pub score r in
          let attrs' =
            Array.mapi (fun i x -> Paillier.add pub x (Paillier.encrypt s1.Ctx.rng pub rs.(i))) attrs
          in
          let r_inv = Modular.inv r ~m:n in
          (* multiplicative escrows are kept one-per-party: combining them
             homomorphically would overflow the escrow modulus *)
          {
            Wire.score = score';
            attrs = attrs';
            r_escrow = [ Paillier.encrypt s1.Ctx.rng own r_inv ];
            a_escrow = Array.map (fun v -> Paillier.encrypt s1.Ctx.rng own v) rs;
          })
        tuples
    in
    let arr = Array.of_list blinded in
    ignore (Rng.shuffle s1.Ctx.rng arr);
    (* --- S2 (one round trip): decrypt blinded scores; drop zeros;
       re-blind survivors and update the escrows --- *)
    let out =
      match Ctx.rpc ctx ~label:filter_protocol (Wire.Filter (Array.to_list arr)) with
      | Wire.Tuples out -> out
      | _ -> failwith "Sec_join.filter: unexpected response"
    in
    (* --- S1: strip both layers of blinding --- *)
    List.map
      (fun (t : Wire.tuple) ->
        let r_total =
          List.fold_left
            (fun acc c -> Modular.mul acc (Nat.rem (Paillier.decrypt s1.Ctx.own_sk c) n) ~m:n)
            Nat.one t.Wire.r_escrow
        in
        let rs_total = Array.map (fun c -> Nat.rem (Paillier.decrypt s1.Ctx.own_sk c) n) t.Wire.a_escrow in
        {
          score = Paillier.scalar_mul pub t.Wire.score r_total;
          attrs = Array.mapi (fun i x -> Gadgets.strip s1 x rs_total.(i)) t.Wire.attrs;
        })
      out

(* blinded descending sort by score through S2, as EncSort's one-round
   strategy but over joined tuples *)
let sort_desc (ctx : Ctx.t) tuples =
  Obs.span "EncSort" @@ fun () ->
  match tuples with
  | [] | [ _ ] -> tuples
  | _ ->
    let s1 = ctx.Ctx.s1 in
    let pub = s1.Ctx.pub in
    let rho = Gadgets.blind_scalar s1 in
    let r = Rng.nat_bits s1.Ctx.rng 32 in
    let arr = Array.of_list tuples in
    ignore (Rng.shuffle s1.Ctx.rng arr);
    let keyed =
      Array.map
        (fun t ->
          ( Paillier.add pub (Paillier.scalar_mul pub t.score rho) (Paillier.encrypt s1.Ctx.rng pub r),
            t.score,
            t.attrs ))
        arr
    in
    match Ctx.rpc ctx ~label:"EncSort" (Wire.Rank_tuples (Array.to_list keyed)) with
    | Wire.Ranked out -> List.map (fun (score, attrs) -> { score; attrs }) out
    | _ -> failwith "Sec_join.sort_desc: unexpected response"

let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r

let top_k ctx e1 e2 tk =
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span "SecJoinQuery" @@ fun () ->
  let combined = combine ctx e1 e2 tk in
  let surviving = filter ctx combined in
  (* remove the +1 score offset added by [combine] *)
  let s1 = ctx.Ctx.s1 in
  let unoffset = List.map (fun t -> { t with score = Gadgets.strip s1 t.score Nat.one }) surviving in
  take tk.Join_scheme.k (sort_desc ctx unoffset)

(* ---------------- multi-way join (Section 12's L-relation sketch) ----

   The predicate of an L-way chain equi-join is a conjunction of L-1
   pairwise conditions; S1 evaluates the EHL difference of each condition
   on every tuple combination of the cross product and S2 returns one
   E2(verdict) per combination through [Gadgets.conjunction_round]. Scores
   and carried attributes are then selected exactly as in the binary
   operator. Cross products grow multiplicatively, so this is practical
   for small L / scaled relations — the same nested-loop generality the
   paper sketches. *)

type multi_spec = {
  chain : (int * int) list;
      (* (attr of R_i, attr of R_{i+1}) - permuted indices, length L-1 *)
  score_attrs : int list; (* one permuted score attribute per relation *)
  k : int;
}

let spec_of_token key ~ms ~chain ~score_attrs ~k =
  let pos i attr =
    Join_scheme.attr_position key ~rel_tag:("R" ^ string_of_int (i + 1)) ~m:(List.nth ms i) attr
  in
  {
    chain = List.mapi (fun i (a, b) -> (pos i a, pos (i + 1) b)) chain;
    score_attrs = List.mapi pos score_attrs;
    k;
  }

let cross_product (rels : Join_scheme.enc_relation list) =
  List.fold_left
    (fun acc (r : Join_scheme.enc_relation) ->
      List.concat_map
        (fun combo -> Array.to_list (Array.map (fun t -> t :: combo) r.Join_scheme.tuples))
        acc)
    [ [] ] rels
  |> List.map List.rev

let combine_multi (ctx : Ctx.t) rels (spec : multi_spec) =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let combos = Array.of_list (cross_product rels) in
  ignore (Rng.shuffle s1.Ctx.rng combos);
  let groups =
    Array.to_list
      (Array.map
         (fun combo ->
           let arr = Array.of_list combo in
           List.mapi
             (fun i (al, ar) ->
               let ehl_l, _ = arr.(i).Join_scheme.cells.(al) in
               let ehl_r, _ = arr.(i + 1).Join_scheme.cells.(ar) in
               Ehl.Ehl_plus.diff ?blind_bits:s1.Ctx.blind_bits s1.Ctx.rng pub ehl_l ehl_r)
             spec.chain)
         combos)
  in
  let ts = Gadgets.conjunction_round ctx ~protocol:"SecJoin" groups in
  let zero = Gadgets.enc_zero s1 in
  (* one recover batch for the score + attribute selections of every combo *)
  let per_combo =
    List.map2
      (fun t combo ->
        let arr = Array.of_list combo in
        let total =
          List.fold_left
            (fun acc (i, sa) -> Paillier.add pub acc (snd arr.(i).Join_scheme.cells.(sa)))
            (Paillier.encrypt s1.Ctx.rng pub Nat.one)
            (List.mapi (fun i sa -> (i, sa)) spec.score_attrs)
        in
        let carried =
          Array.concat (List.map (fun (tp : Join_scheme.enc_tuple) -> Array.map snd tp.Join_scheme.cells) combo)
        in
        (t, total, zero) :: Array.to_list (Array.map (fun x -> (t, x, zero)) carried))
      ts (Array.to_list combos)
  in
  let picked =
    Array.of_list
      (Gadgets.select_recover_many ctx ~protocol:"SecJoin" (List.concat per_combo))
  in
  let cursor = ref 0 in
  List.map
    (fun choices ->
      let width = List.length choices in
      let score = picked.(!cursor) in
      let attrs = Array.init (width - 1) (fun a -> picked.(!cursor + 1 + a)) in
      cursor := !cursor + width;
      { score; attrs })
    per_combo

let top_k_multi ctx rels spec =
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span "SecJoinQuery" @@ fun () ->
  let combined = combine_multi ctx rels spec in
  let surviving = filter ctx combined in
  let s1 = ctx.Ctx.s1 in
  let unoffset = List.map (fun t -> { t with score = Gadgets.strip s1 t.score Nat.one }) surviving in
  take spec.k (sort_desc ctx unoffset)

(* ---------------- rank-join over pre-sorted relations ----------------

   The paper's future-work optimization: with each relation stored in
   descending score order, pairs are explored diagonal by diagonal
   (all (i, j) with i + j = d), so the best possible score of any
   unexplored pair is bounded by the maximum frontier sum — once the
   current k-th matched score reaches that bound, the scan stops without
   touching the remaining pairs. S1 additionally learns the halting
   diagonal and the (blinded) order of frontier sums; see DESIGN.md. *)

(* encrypted max by folding EncCompare; S1 learns the comparison bits of
   the (score-domain) sums, the rank-leakage documented above *)
let enc_max ctx = function
  | [] -> invalid_arg "Sec_join.enc_max: empty"
  | first :: rest ->
    List.fold_left (fun acc c -> if Enc_compare.leq ctx acc c then c else acc) first rest

let diagonal ~n1 ~n2 d =
  let lo = max 0 (d - (n2 - 1)) and hi = min d (n1 - 1) in
  if lo > hi then [] else List.init (hi - lo + 1) (fun t -> (lo + t, d - (lo + t)))

let combine_pairs (ctx : Ctx.t) (e1 : Join_scheme.enc_relation) (e2 : Join_scheme.enc_relation)
    (tk : Join_scheme.token) pairs =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let arr = Array.of_list pairs in
  ignore (Rng.shuffle s1.Ctx.rng arr);
  let tup1 i = e1.Join_scheme.tuples.(i) and tup2 j = e2.Join_scheme.tuples.(j) in
  let diffs =
    Array.to_list
      (Array.map
         (fun (i, j) ->
           let ehl_l, _ = (tup1 i).Join_scheme.cells.(tk.Join_scheme.join_left) in
           let ehl_r, _ = (tup2 j).Join_scheme.cells.(tk.Join_scheme.join_right) in
           Ehl.Ehl_plus.diff ?blind_bits:s1.Ctx.blind_bits s1.Ctx.rng pub ehl_l ehl_r)
         arr)
  in
  let ts = Gadgets.equality_round ctx ~protocol:"SecJoin" diffs in
  let zero = Gadgets.enc_zero s1 in
  (* one recover batch for the whole diagonal's selections *)
  let per_pair =
    List.map2
      (fun t (i, j) ->
        let _, score_l = (tup1 i).Join_scheme.cells.(tk.Join_scheme.score_left) in
        let _, score_r = (tup2 j).Join_scheme.cells.(tk.Join_scheme.score_right) in
        let total =
          Paillier.add pub (Paillier.add pub score_l score_r) (Paillier.encrypt s1.Ctx.rng pub Nat.one)
        in
        let carried =
          Array.append
            (Array.map snd (tup1 i).Join_scheme.cells)
            (Array.map snd (tup2 j).Join_scheme.cells)
        in
        (t, total, zero) :: Array.to_list (Array.map (fun x -> (t, x, zero)) carried))
      ts (Array.to_list arr)
  in
  let picked =
    Array.of_list
      (Gadgets.select_recover_many ctx ~protocol:"SecJoin" (List.concat per_pair))
  in
  let cursor = ref 0 in
  List.map
    (fun choices ->
      let width = List.length choices in
      let score = picked.(!cursor) in
      let attrs = Array.init (width - 1) (fun a -> picked.(!cursor + 1 + a)) in
      cursor := !cursor + width;
      { score; attrs })
    per_pair

type sorted_stats = { pairs_explored : int; pairs_total : int; halted_early : bool }

let top_k_sorted_stats (ctx : Ctx.t) e1 e2 (tk : Join_scheme.token) =
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span "SecJoinQuery" @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let n1 = Array.length e1.Join_scheme.tuples and n2 = Array.length e2.Join_scheme.tuples in
  let max_diag = n1 + n2 - 2 in
  let matched = ref [] in
  let explored = ref 0 in
  let halted = ref false in
  let d = ref 0 in
  while (not !halted) && !d <= max_diag do
    let pairs = diagonal ~n1 ~n2 !d in
    explored := !explored + List.length pairs;
    matched := combine_pairs ctx e1 e2 tk pairs @ !matched;
    (* halting test: does the k-th matched score already dominate every
       unexplored pair? *)
    if !d < max_diag && List.length !matched >= tk.Join_scheme.k then begin
      let frontier = diagonal ~n1 ~n2 (!d + 1) in
      let frontier_sums =
        List.map
          (fun (i, j) ->
            let _, sl = e1.Join_scheme.tuples.(i).Join_scheme.cells.(tk.Join_scheme.score_left) in
            let _, sr = e2.Join_scheme.tuples.(j).Join_scheme.cells.(tk.Join_scheme.score_right) in
            (* +1 matches the offset carried by matched scores *)
            Paillier.add pub (Paillier.add pub sl sr) (Paillier.trivial pub Nat.one))
          frontier
      in
      let bound = enc_max ctx frontier_sums in
      let sorted = sort_desc ctx !matched in
      matched := sorted;
      let wk = (List.nth sorted (tk.Join_scheme.k - 1)).score in
      (* halt when W_k is a real match (>= 1) and beats the bound: both
         tests in one batch round (no short-circuit, same conjunction) *)
      (match Enc_compare.leq_many ctx [ (Paillier.trivial pub Nat.one, wk); (bound, wk) ] with
      | [ real; beats ] -> if real && beats then halted := true
      | _ -> assert false)
    end;
    incr d
  done;
  let surviving = filter ctx !matched in
  let unoffset = List.map (fun t -> { t with score = Gadgets.strip s1 t.score Nat.one }) surviving in
  ( take tk.Join_scheme.k (sort_desc ctx unoffset),
    { pairs_explored = !explored; pairs_total = n1 * n2; halted_early = !halted } )

let top_k_sorted ctx e1 e2 tk = fst (top_k_sorted_stats ctx e1 e2 tk)
