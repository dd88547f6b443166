(** Paillier public-key cryptosystem (Paillier, EUROCRYPT'99).

    Additively homomorphic over [Z_n]: [add (enc x) (enc y) ~ enc (x+y)] and
    [scalar_mul (enc x) a ~ enc (a*x)]. Encryption is probabilistic; two
    encryptions of the same plaintext are unlinkable.

    We use the standard [g = n+1] variant, so encryption is
    [(1 + m*n) * r^n mod n^2] — one modular exponentiation. *)

open Bignum

type public = private {
  n : Nat.t;
  n2 : Nat.t;
  key_bits : int;
  h : Nat.t;  (** a fixed random n-th residue, base for shortened noise *)
  rand_bits : int option;
      (** When [Some b], encryption noise is [h^rho] with a [b]-bit [rho]
          instead of [r^n] with uniform [r] — the standard
          shortened-randomness optimization (secure under the subgroup
          indistinguishability assumption); [None] = textbook Paillier. *)
}

type secret
(** Holds [lambda = lcm(p-1, q-1)] and [mu = lambda^-1 mod n]. *)

type ciphertext = private Nat.t
(** An element of [Z_{n^2}^*]. The constructor is private: ciphertexts are
    only created by this module's functions (or [of_nat] for
    deserialization). *)

(** [keygen rng ~bits] generates a key pair with an exactly [bits]-wide
    modulus [n] (two [bits/2]-bit primes). [bits >= 16]. [rand_bits]
    enables shortened encryption noise (see {!type:public}). *)
val keygen : ?rand_bits:int -> Rng.t -> bits:int -> public * secret

(** Adjust the noise policy of an existing key (updates the secret's
    embedded public too). *)
val with_rand_bits : public -> int option -> public

(** Exposes [p], [q], [lambda] for the Damgård–Jurik extension. *)
val secret_params : secret -> Nat.t * Nat.t * Nat.t

(** [encrypt rng pub m] encrypts [m mod n]. *)
val encrypt : Rng.t -> public -> Nat.t -> ciphertext

val encrypt_int : Rng.t -> public -> int -> ciphertext

(** CRT decryption. Raises [Invalid_argument "Paillier.decrypt:
    ciphertext is not a unit"] when [p] or [q] divides the ciphertext
    (no encryption is such a value). *)
val decrypt : secret -> ciphertext -> Nat.t

(** Decrypts and maps residues above [n/2] to negative integers (the
    standard signed encoding used by the comparison sub-protocols). *)
val decrypt_signed : secret -> ciphertext -> Bigint.t

(** Homomorphic addition: product of ciphertexts. *)
val add : public -> ciphertext -> ciphertext -> ciphertext

(** Homomorphic scalar multiplication: ciphertext exponentiation. *)
val scalar_mul : public -> ciphertext -> Nat.t -> ciphertext

(** [scalar_mul_many pub [(c_1, k_1); ...]] is the homomorphic weighted
    sum [enc (sum_i k_i * m_i)], computed as one interleaved
    simultaneous multi-exponentiation (a single shared squaring chain
    instead of one full ladder per term). Counts as [List.length pairs]
    scalar multiplications. *)
val scalar_mul_many : public -> (ciphertext * Nat.t) list -> ciphertext

(** [neg pub c] encrypts the additive inverse ([c^(n-1)]). *)
val neg : public -> ciphertext -> ciphertext

(** [sub pub a b ~ enc (a - b)] in [Z_n]. *)
val sub : public -> ciphertext -> ciphertext -> ciphertext

(** Fresh randomness on an existing ciphertext (multiply by an encryption
    of zero); the plaintext is unchanged but the ciphertext is unlinkable
    to its origin. *)
val rerandomize : Rng.t -> public -> ciphertext -> ciphertext

(** One noise factor [r^n mod n^2] — what {!encrypt} and {!rerandomize}
    multiply in. [noise rng pub] is [noise_of pub (draw_noise rng pub)]. *)
val noise : Rng.t -> public -> Bignum.Nat.t

(** The random half of {!noise}: every draw it makes from [rng] ([r], or
    [rho] under shortened noise), and nothing else. *)
val draw_noise : Rng.t -> public -> Bignum.Nat.t

(** The deterministic half of {!noise}: the exponentiation of a draw.
    Safe on any domain; a fan-out draws first, in sequential order. *)
val noise_of : public -> Bignum.Nat.t -> Bignum.Nat.t

(** [rerandomize_with pub ~noise c] — re-randomize with a precomputed
    {!noise} factor: a single modular multiplication. *)
val rerandomize_with : public -> noise:Bignum.Nat.t -> ciphertext -> ciphertext

(** [encrypt_with pub ~noise m] encrypts with a precomputed {!noise}
    factor — byte-identical to [encrypt] when the factor came from the
    same rng position, at the cost of one modular multiplication. *)
val encrypt_with : public -> noise:Bignum.Nat.t -> Nat.t -> ciphertext

(** [encrypt_neg_with pub ~draw m] is bit-identical to
    [neg pub (encrypt_with pub ~noise:(noise_of pub draw) m)], the
    negation of the encryption of [m] that [draw] picks. Under shortened
    noise it costs one exponentiation on the comb of [h^(n-1)] and one
    modular multiplication instead of a full-width exponentiation; under
    textbook noise it falls back to the negation. Counts as one
    encryption. *)
val encrypt_neg_with : public -> draw:Bignum.Nat.t -> Nat.t -> ciphertext

(** Build the per-key tables ahead of the first encryption: Montgomery
    contexts for [n] and [n^2] and, under shortened noise, the
    fixed-base comb for [h]. Idempotent; servers call it at startup so
    no query pays the one-time cost. The comb for [h^(n-1)] is built by
    the first {!encrypt_neg_with} under the key, so a process that never
    strips never builds it. *)
val precompute : public -> unit

(** Deterministic trivial encryption with randomness 1 — only for tests and
    for homomorphic constants; NOT semantically secure. *)
val trivial : public -> Nat.t -> ciphertext

val to_nat : ciphertext -> Nat.t

(** [of_nat pub c] validates [c < n^2] (deserialization). *)
val of_nat : public -> Nat.t -> ciphertext

(** Serialized ciphertext size in bytes (fixed for a given key). *)
val ciphertext_bytes : public -> int

(** Size of a serialized plaintext in bytes. *)
val plaintext_bytes : public -> int

val equal_ct : ciphertext -> ciphertext -> bool
