open Bignum
open Crypto

type t = Paillier.ciphertext array

let encode rng pub ~keys id =
  keys
  |> List.map (fun key -> Paillier.encrypt rng pub (Prf.to_nat_mod ~key id ~m:pub.Paillier.n))
  |> Array.of_list

(* The blinds of one [diff], drawn in cell order exactly like the
   per-cell loop this replaces. *)
let draw_blinds ?blind_bits rng pub (a : t) =
  let n = pub.Paillier.n in
  Array.map
    (fun _ ->
      match blind_bits with
      | None -> Rng.unit_mod rng n
      | Some bits -> Nat.succ (Rng.nat_bits rng bits))
    a

let diff_with pub ~blinds (a : t) (b : t) =
  if Array.length a <> Array.length b || Array.length blinds <> Array.length a then
    invalid_arg "Ehl_plus.diff: length mismatch";
  let n = pub.Paillier.n in
  (* prod_i a_i^rho_i * b_i^(n - rho_i) decrypts to
     sum_i rho_i * (a_i - b_i) mod n: one simultaneous
     multi-exponentiation over 2s bases instead of a ciphertext negation
     plus scalar multiplication per cell. *)
  let pairs = ref [] in
  for i = Array.length a - 1 downto 0 do
    pairs := (a.(i), blinds.(i)) :: (b.(i), Nat.sub n blinds.(i)) :: !pairs
  done;
  Paillier.scalar_mul_many pub !pairs

let diff ?blind_bits rng pub a b =
  if Array.length a <> Array.length b then invalid_arg "Ehl_plus.diff: length mismatch";
  diff_with pub ~blinds:(draw_blinds ?blind_bits rng pub a) a b

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
