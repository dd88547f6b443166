open Bignum

type key = string

let gen_keys rng s = List.init s (fun _ -> Rng.bytes rng 32)

(* counter mode: block i is HMAC(key, "i|" ^ msg), all under one
   preparation of the key *)
let expand ~key msg nbytes =
  Obs.bump Obs.Metrics.Prf_eval;
  let k = Hmac.prepare key in
  let out = Bytes.create nbytes in
  let ctr = ref 0 in
  while Sha256.size * !ctr < nbytes do
    let off = Sha256.size * !ctr in
    let block = Hmac.mac_with k (string_of_int !ctr ^ "|" ^ msg) in
    Bytes.blit_string block 0 out off (min Sha256.size (nbytes - off));
    incr ctr
  done;
  Bytes.unsafe_to_string out

let to_nat_mod ~key msg ~m =
  let width = (2 * Nat.bit_length m / 8) + 2 in
  Nat.rem (Nat.of_bytes (expand ~key msg width)) m

let to_index ~key msg ~buckets =
  if buckets <= 0 then invalid_arg "Prf.to_index";
  Nat.to_int (to_nat_mod ~key msg ~m:(Nat.of_int buckets))
