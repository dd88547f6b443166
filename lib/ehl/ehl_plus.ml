open Bignum
open Crypto

type t = Paillier.ciphertext array

let encode rng pub ~keys id =
  keys
  |> List.map (fun key -> Paillier.encrypt rng pub (Prf.to_nat_mod ~key id ~m:pub.Paillier.n))
  |> Array.of_list

(* The blinds of one [diff], one per cell in cell order. *)
let draw_blinds ?blind_bits rng pub (a : t) =
  let n = pub.Paillier.n in
  Array.map
    (fun _ ->
      match blind_bits with
      | None -> Rng.unit_mod rng n
      | Some bits -> Nat.succ (Rng.nat_bits rng bits))
    a

type inverted = Paillier.ciphertext array

(* a cell's inverse mod n^2 encrypts its negated hash value *)
let invert_many pub (items : t array) =
  let cells = Array.concat (Array.to_list items) in
  let invs =
    Array.of_list
      (Modular.inv_many (Array.to_list (Array.map Paillier.to_nat cells)) ~m:pub.Paillier.n2)
  in
  snd
    (Array.fold_left_map
       (fun off a ->
         let s = Array.length a in
         (off + s, Array.map (Paillier.of_nat pub) (Array.sub invs off s)))
       0 items)

let diff pub ~blinds (a : inverted) (b : t) =
  if Array.length a <> Array.length b || Array.length blinds <> Array.length a then
    invalid_arg "Ehl_plus.diff: length mismatch";
  (* prod_i (a_i^-1 * b_i)^rho_i decrypts to sum_i rho_i * (b_i - a_i)
     mod n: one multiplication per cell and one simultaneous
     multi-exponentiation over s bases, each raised to its blind alone *)
  Paillier.scalar_mul_many pub
    (List.init (Array.length a) (fun i -> (Paillier.add pub a.(i) b.(i), blinds.(i))))

let mask pub (e : t) encs =
  if Array.length e <> Array.length encs then invalid_arg "Ehl_plus.mask: length mismatch";
  Array.mapi (fun i c -> Paillier.add pub c encs.(i)) e

let rerandomize rng pub t = Array.map (Paillier.rerandomize rng pub) t

let size_bytes pub t = Array.length t * Paillier.ciphertext_bytes pub
let length = Array.length

let false_positive_rate pub ~s ~rows =
  let log2_n = float_of_int (Nat.bit_length pub.Paillier.n) in
  let log2_fpr = (2. *. log (float_of_int rows) /. log 2.) -. (float_of_int s *. log2_n) in
  2. ** log2_fpr

let cells t = t
let of_cells c = c
