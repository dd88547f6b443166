open Bignum
open Crypto

let protocol = "SecWorst"

(* S1's draws for one instance, on the calling domain: the permutation
   of the others (a fresh one per instance hides pairwise relations
   from S2), then per other, in permuted order, its diff blinds, then
   per other a mask rho uniform on Z_n with its noise. A rho is never
   shared: one reused across a row's instances would show S2 the same
   masked value twice. *)
type instance = {
  target : Enc_item.entry;
  perm : int array;  (** permuted position -> position in the caller's [others] *)
  others : Enc_item.entry array;  (** permuted *)
  blinds : Nat.t array array;
  masks : (Nat.t * Nat.t) array;
}

let draw (s1 : Ctx.s1) ((target : Enc_item.entry), others) =
  let others = Array.of_list others in
  let perm = Rng.shuffle s1.rng others in
  let blinds =
    Array.map
      (fun _ -> Ehl.Ehl_plus.draw_blinds ?blind_bits:s1.blind_bits s1.rng s1.pub target.ehl)
      others
  in
  let masks = Array.map (fun _ -> Gadgets.draw_mask s1) others in
  { target; perm; others; blinds; masks }

(* One Worst_pick per instance, all in one round. S2 answers
   Enc(sum_l t_l * u_l) for u_l = x_l + rho_l and a fresh Enc(t_l) per
   other; since sum_l t_l * x_l = sum_l t_l * u_l - sum_l t_l * rho_l,
   worst = x * Enc(sum) * prod_l Enc(t_l)^(n - rho_l), one
   multi-exponentiation. The Enc(t_l), unpermuted, are the equality
   indicators SecQuery builds the seen vector from. *)
let run_many (ctx : Ctx.t) queries =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let insts = Array.of_list (List.map (draw s1) queries) in
  let sizes = Array.to_list (Array.map (fun i -> Array.length i.others) insts) in
  (* every (instance, other) pair of the phase, instance-major *)
  let pairs =
    Array.concat
      (Array.to_list (Array.mapi (fun k i -> Array.init (Array.length i.others) (fun l -> (k, l))) insts))
  in
  (* each target meets all its others: its cells are inverted once *)
  let targets =
    if pairs = [||] then [||]
    else Gadgets.invert pub (Array.map (fun i -> i.target.Enc_item.ehl) insts)
  in
  let diffs =
    Ctx.map ctx ~jobs:(Array.length pairs) (fun x ->
        let k, l = pairs.(x) in
        let i = insts.(k) in
        Ehl.Ehl_plus.diff pub ~blinds:i.blinds.(l) targets.(k) i.others.(l).Enc_item.ehl)
  in
  let scores =
    Ctx.map ctx ~jobs:(Array.length pairs) (fun x ->
        let k, l = pairs.(x) in
        let i = insts.(k) in
        Gadgets.masked pub i.others.(l).Enc_item.score i.masks.(l))
  in
  let replies =
    List.map2
      (fun j resp ->
        match resp with
        | Wire.Cts (sum :: ts) when List.length ts = j -> (sum, Array.of_list ts)
        | Wire.Cts rs ->
          Proto_error.fail "Sec_worst.run_many: %d ciphertexts for %d others" (List.length rs) j
        | _ -> Proto_error.fail "Sec_worst.run_many: expected Cts")
      sizes
      (Ctx.rpc_batch ctx ~label:protocol
         (List.map2
            (fun diffs scores -> Wire.Worst_pick { diffs; scores })
            (Gadgets.chunks sizes diffs) (Gadgets.chunks sizes scores)))
    |> Array.of_list
  in
  let n = pub.Paillier.n in
  Array.to_list
    (Ctx.map ctx ~jobs:(Array.length insts) (fun k ->
         let i = insts.(k) and sum, ts = replies.(k) in
         let worst = Paillier.add pub i.target.score sum in
         let worst =
           if ts = [||] then worst
           else
             Paillier.add pub worst
               (Paillier.scalar_mul_many pub
                  (Array.to_list (Array.mapi (fun l t -> (t, Nat.sub n (fst i.masks.(l)))) ts)))
         in
         let seen = Array.copy ts in
         Array.iteri (fun l old -> seen.(old) <- ts.(l)) i.perm;
         (worst, Array.to_list seen)))

let run (ctx : Ctx.t) ~(target : Enc_item.entry) ~(others : Enc_item.entry list) =
  List.hd (run_many ctx [ (target, others) ])
