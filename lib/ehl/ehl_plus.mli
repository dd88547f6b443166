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

(** [draw_blinds ?blind_bits rng pub a] makes every draw of one ⊖
    against [a]: one blind per cell, in cell order, a unit of [Z_n] or
    a [blind_bits]-bit value. *)
val draw_blinds : ?blind_bits:int -> Rng.t -> Paillier.public -> t -> Bignum.Nat.t array

(** An EHL+ with every cell inverted modulo [n^2]: cell [i] encrypts
    the negation of the hash value it encrypted. *)
type inverted

(** [invert_many pub items] inverts every cell of every item with one
    [Modular.inv_many]: the side of ⊖ that meets several others is
    inverted once. Raises [Failure] if a cell is not a unit (no
    encryption is). *)
val invert_many : Paillier.public -> t array -> inverted array

(** The ⊖ operation (Section 5): [diff pub ~blinds a' b], with [a'] the
    inversion of [a], is [prod_i (a_i^-1 * b_i)^rho_i], an encryption
    of [sum_i rho_i * (b_i - a_i)]: [Enc(0)] iff [a] and [b] hash the
    same (up to negligible FPR), otherwise, under uniform blinds, of a
    random element. One exponent per cell, as wide as its blind. Pure,
    so a fan-out draws the blinds first and runs [diff] anywhere. *)
val diff : Paillier.public -> blinds:Bignum.Nat.t array -> inverted -> t -> Paillier.ciphertext

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
