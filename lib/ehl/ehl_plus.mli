(** EHL+ — the compact encrypted hash list (paper Section 5, "EHL+").

    The object is hashed by [s] HMAC PRFs directly into [Z_n] (the Paillier
    message space) and only those [s] hash values are encrypted, so both
    storage and the ⊖ operation cost [O(s)] instead of [O(h)]. The
    false-positive rate of one comparison is at most [1/n^s] — negligible
    already for [s = 4..5] with a 256-bit [n] (paper Section 5). *)

open Crypto

type t
(** [s] Paillier ciphertexts, one per PRF. *)

(** [encode rng pub ~keys id] builds EHL+(id) with [s = List.length keys]. *)
val encode : Rng.t -> Paillier.public -> keys:Prf.key list -> string -> t

(** The ⊖ operation: [Enc(0)] iff equal (up to negligible FPR), otherwise
    an encryption of a random element. *)
val diff : ?blind_bits:int -> Rng.t -> Paillier.public -> t -> t -> Paillier.ciphertext

(** The two halves of {!diff}: [diff ?blind_bits rng pub a b] is
    [diff_with pub ~blinds:(draw_blinds ?blind_bits rng pub a) a b].
    [draw_blinds] makes every draw (one blind per cell, in cell order,
    a unit of [Z_n] or a [blind_bits]-bit value); [diff_with] is the
    deterministic multi-exponentiation, safe to fan out. *)
val draw_blinds : ?blind_bits:int -> Rng.t -> Paillier.public -> t -> Bignum.Nat.t array

val diff_with : Paillier.public -> blinds:Bignum.Nat.t array -> t -> t -> Paillier.ciphertext

(** The ⊙ operation (Section 5, "Notation"): blockwise product with a
    vector of encryptions — [mask pub e encs] multiplies cell [i] by
    [encs.(i)], homomorphically adding [alpha_i] to the hidden hash value.
    Used by SecDedup's blinding. *)
val mask : Paillier.public -> t -> Paillier.ciphertext array -> t

val rerandomize : Rng.t -> Paillier.public -> t -> t

val size_bytes : Paillier.public -> t -> int

(** Number of ciphertexts stored ([s]). *)
val length : t -> int

(** Upper bound [n_rows^2 / n^s] on the dataset-wide FPR (union bound over
    all pairs), with [n] the Paillier modulus. *)
val false_positive_rate : Paillier.public -> s:int -> rows:int -> float

val cells : t -> Paillier.ciphertext array

(** Build from raw cells (deserialization / S2-side reconstruction). *)
val of_cells : Paillier.ciphertext array -> t
