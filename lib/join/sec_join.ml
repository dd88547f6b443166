open Bignum
open Crypto
open Proto

type joined = { score : Paillier.ciphertext; attrs : Paillier.ciphertext array }

let protocol = "SecJoin"

type multi_spec = {
  chain : (int * int) list;
      (* (attr of R_i, attr of R_{i+1}) - permuted indices, length L-1 *)
  score_attrs : int list; (* one permuted score attribute per relation *)
  k : int;
}

(* ---------------- the join pick ----------------

   Every combine step is one Join_pick round over its tuple combinations
   (DESIGN.md section 3a item 16). A combination holds one tuple per
   relation; its verdict t is the conjunction of the [chain] equalities,
   each between (attr of tuple i, attr of tuple i + 1). S2 sees one EHL
   difference per combination, over the cells of every condition with
   a blind per cell, so it decrypts 0 only when every condition holds
   and learns nothing of a single condition. Its fields are the score
   sum offset by +1, which keeps a genuine all-zero score alive through
   SecFilter, and every carried attribute.
   S1 sends each field x as Enc(x + rho) with rho uniform on Z_n; S2
   answers Enc(t) and Enc(t * u) per field, u = x + rho, and
   Enc(t * x) = Enc(t * u) * Enc(t)^(n - rho). *)

let conditions spec (combo : Join_scheme.enc_tuple array) =
  List.mapi (fun i (al, ar) -> (fst combo.(i).cells.(al), fst combo.(i + 1).cells.(ar))) spec.chain

let carried (combo : Join_scheme.enc_tuple array) =
  Array.concat (Array.to_list (Array.map (fun (tp : Join_scheme.enc_tuple) -> Array.map snd tp.cells) combo))

(* S1's draws for one combination, on the calling domain: a blind per
   cell of each condition in turn, a mask per field, then the noise of
   the +1's encryption *)
type draws = { blinds : Nat.t array; masks : (Nat.t * Nat.t) array; one : Nat.t }

let draw (s1 : Ctx.s1) spec combo =
  let blinds =
    Array.concat
      (List.map
         (fun (l, _) -> Ehl.Ehl_plus.draw_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub l)
         (conditions spec combo))
  in
  let masks = Array.init (1 + Array.length (carried combo)) (fun _ -> Gadgets.draw_mask s1) in
  { blinds; masks; one = Paillier.draw_noise s1.rng s1.pub }

(* the combination's diff and masked fields: pure *)
let request pub spec combo d =
  let conds = conditions spec combo in
  let side f =
    Ehl.Ehl_plus.of_cells (Array.concat (List.map (fun c -> Ehl.Ehl_plus.cells (f c)) conds))
  in
  let diff = Ehl.Ehl_plus.diff_with pub ~blinds:d.blinds (side fst) (side snd) in
  let total =
    List.fold_left
      (fun acc (i, a) -> Paillier.add pub acc (snd combo.(i).Join_scheme.cells.(a)))
      (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub d.one) Nat.one)
      (List.mapi (fun i a -> (i, a)) spec.score_attrs)
  in
  (diff, List.mapi (fun f x -> Gadgets.masked pub x d.masks.(f)) (total :: Array.to_list (carried combo)))

(* Enc(t * x) per field from S2's Enc(t), then Enc(t * u) per field, at
   [off] in its reply: pure *)
let unmask pub d cts off =
  let n = pub.Paillier.n and t = cts.(off) in
  let picked =
    Array.mapi
      (fun f (rho, _) -> Paillier.add pub cts.(off + 1 + f) (Paillier.scalar_mul pub t (Nat.sub n rho)))
      d.masks
  in
  { score = picked.(0); attrs = Array.sub picked 1 (Array.length picked - 1) }

let join_pick (ctx : Ctx.t) spec combos =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let combos = Array.of_list (List.map Array.of_list combos) in
  ignore (Rng.shuffle s1.Ctx.rng combos);
  let draws = Array.map (draw s1 spec) combos in
  let jobs = Array.length combos in
  let requests = Ctx.map ctx ~jobs (fun c -> request pub spec combos.(c) draws.(c)) in
  let want, offsets = Array.fold_left_map (fun off d -> (off + 1 + Array.length d.masks, off)) 0 draws in
  let cts =
    match
      Ctx.rpc ctx ~label:protocol
        (Wire.Join_pick
           { diffs = Array.to_list (Array.map fst requests); fields = Array.to_list (Array.map snd requests) })
    with
    | Wire.Cts cts when List.length cts = want -> Array.of_list cts
    | Wire.Cts cts -> Proto_error.fail "Sec_join.join_pick: %d ciphertexts for %d" (List.length cts) want
    | _ -> Proto_error.fail "Sec_join.join_pick: expected Cts"
  in
  Array.to_list (Ctx.map ctx ~jobs (fun c -> unmask pub draws.(c) cts offsets.(c)))

let binary (tk : Join_scheme.token) =
  { chain = [ (tk.join_left, tk.join_right) ]; score_attrs = [ tk.score_left; tk.score_right ]; k = tk.k }

let combine_pairs (ctx : Ctx.t) (e1 : Join_scheme.enc_relation) (e2 : Join_scheme.enc_relation) tk
    pairs =
  join_pick ctx (binary tk) (List.map (fun (i, j) -> [ e1.tuples.(i); e2.tuples.(j) ]) pairs)

let combine ctx (e1 : Join_scheme.enc_relation) (e2 : Join_scheme.enc_relation) tk =
  let pairs = ref [] in
  Array.iteri (fun i _ -> Array.iteri (fun j _ -> pairs := (i, j) :: !pairs) e2.tuples) e1.tuples;
  combine_pairs ctx e1 e2 tk !pairs

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
   pairwise conditions; one join pick over the whole cross product
   evaluates it per combination, and S2 records only the verdicts. Cross
   products grow multiplicatively, so this is practical for small L /
   scaled relations — the same nested-loop generality the paper
   sketches. *)

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

let combine_multi ctx rels spec = join_pick ctx spec (cross_product rels)

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
