open Bignum
open Crypto
open Proto

type enc_db = { records : Paillier.ciphertext array array; m : int }

let protocol = "SkNN"

let encrypt_db rng pub rel =
  let open Dataset in
  let m = Relation.n_attrs rel in
  let records =
    Array.init (Relation.n_rows rel) (fun row ->
        Array.init m (fun attr ->
            Paillier.encrypt rng pub (Nat.of_int (Relation.value rel ~row ~attr))))
  in
  { records; m }

let n_records db = Array.length db.records
let size_bytes pub db = Array.length db.records * db.m * Paillier.ciphertext_bytes pub

let secure_multiply = Sm.secure_multiply

(* Distance phase shared by both selection strategies. The O(n*m) secure
   multiplications d_j = sum_i (x_ji - q_i)^2 are fully independent: S1
   blinds them in index order (the blinds draw randomness), ships them in
   chunks of [chunk] through [Ctx.rpc_batch] and strips the cross terms
   afterwards in index order. *)
let chunk = 16

let distances (ctx : Ctx.t) db ~point =
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let n = pub.Paillier.n in
  let enc_q = Array.map (fun v -> Paillier.encrypt s1.Ctx.rng pub (Nat.of_int v)) point in
  let m = db.m in
  let total = Array.length db.records * m in
  let prepared =
    Array.init total (fun idx ->
        let diff = Paillier.sub pub db.records.(idx / m).(idx mod m) enc_q.(idx mod m) in
        let ra = Rng.nat_below s1.Ctx.rng n and rb = Rng.nat_below s1.Ctx.rng n in
        let a' = Paillier.add pub diff (Paillier.encrypt s1.Ctx.rng pub ra) in
        let b' = Paillier.add pub diff (Paillier.encrypt s1.Ctx.rng pub rb) in
        ((diff, ra, rb), Wire.Mult (a', b')))
  in
  let resps =
    List.concat_map
      (fun lo ->
        Ctx.rpc_batch ctx ~label:protocol
          (List.init (min chunk (total - lo)) (fun j -> snd prepared.(lo + j))))
      (List.init ((total + chunk - 1) / chunk) (fun c -> c * chunk))
  in
  let prods =
    Array.of_list
      (List.mapi
         (fun idx resp ->
           let (diff, ra, rb), _ = prepared.(idx) in
           match resp with
           | Wire.Ct h ->
             (* ab = h - a*rb - b*ra - ra*rb *)
             let t1 = Paillier.scalar_mul pub diff rb in
             let t2 = Paillier.scalar_mul pub diff ra in
             let t3 = Paillier.encrypt s1.Ctx.rng pub (Modular.mul ra rb ~m:n) in
             Paillier.sub pub (Paillier.sub pub (Paillier.sub pub h t1) t2) t3
           | _ -> failwith "Sknn.distances: unexpected response")
         resps)
  in
  Array.init (Array.length db.records) (fun j ->
      let acc = ref (Paillier.encrypt s1.Ctx.rng pub Nat.zero) in
      for i = 0 to m - 1 do
        acc := Paillier.add pub !acc prods.((j * m) + i)
      done;
      !acc)

let query (ctx : Ctx.t) db ~point ~k =
  if Array.length point <> db.m then invalid_arg "Sknn.query: dimension mismatch";
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let ds = distances ctx db ~point in
  (* nearest-k selection through a blinded rank at S2 *)
  let rho = Gadgets.blind_scalar s1 in
  let keyed = Array.map (fun d -> Paillier.scalar_mul pub d rho) ds in
  let order =
    match Ctx.rpc ctx ~label:protocol (Wire.Rank_keys (Array.to_list keyed)) with
    | Wire.Indices order -> order
    | _ -> failwith "Sknn.query: unexpected response"
  in
  let rec take n = function [] -> [] | x :: r -> if n = 0 then [] else x :: take (n - 1) r in
  take (min k (List.length order)) order

let query_smin (ctx : Ctx.t) db ~point ~k ~bits =
  if Array.length point <> db.m then invalid_arg "Sknn.query_smin: dimension mismatch";
  Obs.with_default ctx.Ctx.obs @@ fun () ->
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.Ctx.pub in
  let ds = distances ctx db ~point in
  let n = Array.length ds in
  (* SBD every distance once — one Lsb batch per bit level across all n
     candidates; each SMIN_k pass then runs [21]'s bitwise machinery over
     the decomposed candidates *)
  let dec_bits = Sbd.decompose_many ctx ~bits ds in
  let packed = Array.map (fun b -> Sbd.recompose ctx b) dec_bits in
  let active = Array.make n true in
  let results = ref [] in
  let max_dist = Nat.pred (Nat.shift_left Nat.one bits) in
  for _ = 1 to min k n do
    (* fold SMIN over the active candidates *)
    let cur = ref None in
    for i = 0 to n - 1 do
      if active.(i) then
        match !cur with
        | None -> cur := Some (dec_bits.(i), packed.(i))
        | Some (cb, cp) ->
          let m = Smin.min_pair_bits ctx cb dec_bits.(i) ~u_packed:cp ~v_packed:packed.(i) in
          cur := Some (Sbd.decompose ctx ~bits m, m)
    done;
    match !cur with
    | None -> ()
    | Some (_, min_packed) ->
      (* locate the winning index: S1 blinds the differences and permutes;
         S2 reports which (permuted) slot is zero. [21] likewise reveals
         which encrypted records form the answer at this point. *)
      let idxs = Array.of_list (List.filter (fun i -> active.(i)) (List.init n Fun.id)) in
      let perm = Rng.shuffle s1.Ctx.rng idxs in
      ignore perm;
      let blinded =
        Array.map
          (fun i ->
            Paillier.scalar_mul pub (Paillier.sub pub ds.(i) min_packed)
              (Gadgets.blind_scalar s1))
          idxs
      in
      let zero_slot =
        match Ctx.rpc ctx ~label:protocol (Wire.Zero_slot (Array.to_list blinded)) with
        | Wire.Slot slot -> slot
        | _ -> failwith "Sknn.query_smin: unexpected response"
      in
      (match zero_slot with
      | Some slot ->
        let winner = idxs.(slot) in
        active.(winner) <- false;
        results := winner :: !results;
        (* retire the winner: its distance becomes the domain maximum *)
        dec_bits.(winner) <- Array.init bits (fun i ->
            Paillier.encrypt s1.Ctx.rng pub
              (if Nat.nth_bit max_dist i then Nat.one else Nat.zero));
        packed.(winner) <- Paillier.encrypt s1.Ctx.rng pub max_dist;
        ds.(winner) <- packed.(winner)
      | None -> ())
  done;
  List.rev !results

module Sm = Sm
module Sbd = Sbd
module Smin = Smin
