open Bignum
open Crypto

type strategy = Network | Blinded

let protocol = "EncSort"

(* Affine key blinding rho*W + r with rho > 0: strictly monotone, so
   comparing blinded keys compares the hidden worst scores. [d] is the
   noise draw of r's encryption, so the blinding itself draws nothing. *)
let blind_key pub ~rho ~r w d =
  Paillier.add pub (Paillier.scalar_mul pub w rho)
    (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub d) r)

let additive_blind (s1 : Ctx.s1) =
  match s1.blind_bits with
  | None -> Rng.nat_below s1.rng (Nat.shift_right s1.pub.Paillier.n 2)
  | Some bits -> Rng.nat_bits s1.rng bits

(* ---------------- Blinded one-round strategy ---------------- *)

let sort_blinded (ctx : Ctx.t) items =
  let s1 = ctx.Ctx.s1 in
  let rho = Gadgets.blind_scalar s1 and r = additive_blind s1 in
  let arr = Array.of_list items in
  ignore (Rng.shuffle s1.rng arr);
  (* Key blinding is per-item independent work: draw every item's noise
     here, in shuffled order, and fan the exponentiations out. The
     decrypt + plaintext sort + re-randomization happen at S2 in a single
     round trip. *)
  let draws = Array.map (fun _ -> Paillier.draw_noise s1.rng s1.pub) arr in
  let keys =
    Ctx.map ctx ~jobs:(Array.length arr) (fun i ->
        blind_key s1.pub ~rho ~r arr.(i).Enc_item.worst draws.(i))
  in
  match
    Ctx.rpc ctx ~label:protocol
      (Wire.Sort_items { keys = Array.to_list keys; items = Array.to_list arr })
  with
  | Wire.Sorted out -> out
  | _ -> failwith "Enc_sort.sort_blinded: unexpected response"

(* ---------------- Bitonic network strategy ---------------- *)

let pad_item (s1 : Ctx.s1) ~cells ~m_seen =
  let n = s1.pub.Paillier.n in
  let minus2 = Nat.sub n Nat.two in
  {
    Enc_item.ehl =
      Ehl.Ehl_plus.of_cells
        (Array.init cells (fun _ -> Paillier.encrypt s1.rng s1.pub (Rng.nat_below s1.rng n)));
    worst = Paillier.encrypt s1.rng s1.pub minus2;
    best = Paillier.encrypt s1.rng s1.pub minus2;
    seen = Array.init m_seen (fun _ -> Paillier.encrypt s1.rng s1.pub Nat.one);
  }

(* One prepared compare-exchange gate: the pair travels coin-swapped and
   key-blinded; S2 returns it ordered (larger key first iff [descending]),
   re-randomized. *)
let gate_request (s1 : Ctx.s1) arr i j ~descending =
  let rho = Gadgets.blind_scalar s1 and r = additive_blind s1 in
  let coin = Rng.bool s1.rng in
  let x, y = if coin then (arr.(j), arr.(i)) else (arr.(i), arr.(j)) in
  let kx = blind_key s1.pub ~rho ~r x.Enc_item.worst (Paillier.draw_noise s1.rng s1.pub) in
  let ky = blind_key s1.pub ~rho ~r y.Enc_item.worst (Paillier.draw_noise s1.rng s1.pub) in
  Wire.Sort_gate { descending; kx; ky; x; y }

(* Iterative bitonic network: the gates of one [(k, j)] phase touch
   disjoint index pairs, so the whole phase ships as a single batch —
   O(log^2 size) rounds instead of one round per gate. Same gate count
   and the same descending result as the recursive formulation. *)
let sort_network (ctx : Ctx.t) items =
  match items with
  | [] | [ _ ] -> items
  | first :: _ ->
    let s1 = ctx.Ctx.s1 in
    let l = List.length items in
    let size =
      let rec up p = if p >= l then p else up (2 * p) in
      up 1
    in
    let cells = Ehl.Ehl_plus.length first.Enc_item.ehl in
    let m_seen = Array.length first.Enc_item.seen in
    let arr = Array.make size (List.hd items) in
    List.iteri (fun i it -> arr.(i) <- it) items;
    for i = l to size - 1 do
      arr.(i) <- pad_item s1 ~cells ~m_seen
    done;
    let k = ref 2 in
    while !k <= size do
      let j = ref (!k / 2) in
      while !j >= 1 do
        (* this phase's disjoint pairs, ascending in the lower index; the
           gate at (i, i lxor j) runs descending iff i land k = 0, which
           makes the full network sort descending *)
        let pairs = ref [] in
        for i = size - 1 downto 0 do
          let p = i lxor !j in
          if p > i then pairs := (i, p, i land !k = 0) :: !pairs
        done;
        let gates =
          List.map
            (fun (i, p, descending) ->
              ((i, p), gate_request s1 arr i p ~descending))
            !pairs
        in
        let resps = Ctx.rpc_batch ctx ~label:protocol (List.map snd gates) in
        List.iter2
          (fun ((i, p), _) resp ->
            match resp with
            | Wire.Pair (first, second) ->
              arr.(i) <- first;
              arr.(p) <- second
            | _ -> failwith "Enc_sort.sort_network: unexpected response")
          gates resps;
        j := !j / 2
      done;
      k := !k * 2
    done;
    (* pads carry key -2 < every real or sentinel key: they end at the tail *)
    Array.to_list (Array.sub arr 0 l)

let sort ctx ~strategy items =
  Obs.span protocol @@ fun () ->
  match strategy with Blinded -> sort_blinded ctx items | Network -> sort_network ctx items
