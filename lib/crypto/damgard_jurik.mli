(** Damgård–Jurik generalised Paillier (PKC'01) with [s = 2].

    Plaintext space [Z_{n^2}], ciphertext space [Z_{n^3}^*]. Because a
    Paillier ciphertext is an element of [Z_{n^2}], a DJ ciphertext can
    carry a Paillier ciphertext as its plaintext — the "layered"
    encryption [E2(Enc(m))] the paper builds RecoverEnc, SecWorst, SecBest
    and SecUpdate on; here only SecJoin still uses it (the SecTopK
    phases pick in Paillier alone, DESIGN §3a items 14 and 15). The single homomorphic property the construction
    relies on (Section 3.3) is

    [scalar_mul (enc2 x) y ~ enc2 (x * y mod n^2)]

    so that [E2(Enc(a))^(Enc(b)) = E2(Enc(a) * Enc(b)) = E2(Enc(a+b))]. *)

open Bignum

type public = private {
  n : Nat.t;
  n2 : Nat.t;
  n3 : Nat.t;
  h2 : Nat.t;  (** fixed random n^2-th residue, base for shortened noise *)
  rand_bits : int option;  (** inherited from the Paillier public key *)
}
type secret
type ciphertext = private Nat.t

(** Derive DJ keys from a Paillier key pair (same [n]). *)
val of_paillier : Paillier.public -> Paillier.secret option -> public * secret option

val public_of_paillier : Paillier.public -> public

(** [encrypt rng pub x] encrypts [x mod n^2]: [(1+n)^x * r^(n^2) mod n^3]. *)
val encrypt : Rng.t -> public -> Nat.t -> ciphertext

(** Encrypt a Paillier ciphertext as the DJ plaintext (layered). *)
val encrypt_layered : Rng.t -> public -> Paillier.ciphertext -> ciphertext

(** CRT decryption with exponents [p-1] and [q-1] (Damgård, Jurik and
    Nielsen). Raises [Invalid_argument "Damgard_jurik.decrypt:
    ciphertext is not a unit"] when [p] or [q] divides the ciphertext
    (no encryption is such a value). *)
val decrypt : secret -> ciphertext -> Nat.t

(** Decrypt the outer DJ layer, recovering the inner Paillier ciphertext. *)
val decrypt_layered : secret -> Paillier.public -> ciphertext -> Paillier.ciphertext

val add : public -> ciphertext -> ciphertext -> ciphertext
val scalar_mul : public -> ciphertext -> Nat.t -> ciphertext

(** [scalar_mul_ct pub c inner] is [c ^ (inner as integer)] — the layered
    homomorphism with a Paillier ciphertext as scalar. *)
val scalar_mul_ct : public -> ciphertext -> Paillier.ciphertext -> ciphertext

(** [scalar_mul_many pub [(c_1, k_1); ...]] is [Enc2(sum k_i * x_i)] — the
    fold of {!scalar_mul} and {!add} collapsed into one simultaneous
    multi-exponentiation over [n^3] (shared squaring chain, same ciphertext
    bytes as the fold). Counts one Dj_mul per pair. *)
val scalar_mul_many : public -> (ciphertext * Nat.t) list -> ciphertext

val rerandomize : Rng.t -> public -> ciphertext -> ciphertext

(** One noise factor [r^{n^2} mod n^3]; draw from a {!Noise_pool}.
    [noise rng pub] is [noise_of pub (draw_noise rng pub)]. *)
val noise : Rng.t -> public -> Bignum.Nat.t

(** The random half of {!noise}, as {!Paillier.draw_noise}. *)
val draw_noise : Rng.t -> public -> Bignum.Nat.t

(** The deterministic half of {!noise}, as {!Paillier.noise_of}. *)
val noise_of : public -> Bignum.Nat.t -> Bignum.Nat.t

(** [encrypt_with pub ~noise x] encrypts with a precomputed {!noise}
    factor — byte-identical to {!encrypt} when the factor came from the
    same rng position. *)
val encrypt_with : public -> noise:Bignum.Nat.t -> Nat.t -> ciphertext

(** [encrypt_neg_with pub ~draw x] is bit-identical to
    [encrypt_with pub ~noise:(noise_of pub draw) x] raised to [n^2-1],
    the encryption of [-x] that strips [x] from a DJ ciphertext. As
    {!Paillier.encrypt_neg_with}: the comb of [h2^(n^2-1)] under
    shortened noise, the full exponentiation under textbook noise.
    Counts as one encryption. *)
val encrypt_neg_with : public -> draw:Bignum.Nat.t -> Nat.t -> ciphertext

(** Re-randomize with a precomputed {!noise} factor: one modular
    multiplication. *)
val rerandomize_with : public -> noise:Bignum.Nat.t -> ciphertext -> ciphertext

(** Deterministic encryption with unit randomness — for homomorphic
    constants whose value is blinded downstream; NOT semantically secure
    on its own. *)
val trivial : public -> Bignum.Nat.t -> ciphertext

(** Counterpart of {!Paillier.precompute} for the layer-2 key: the
    Montgomery context for [n^3] plus the comb for [h2] under shortened
    noise. Idempotent. The comb for [h2^(n^2-1)] is built by the first
    {!encrypt_neg_with}. *)
val precompute : public -> unit

val to_nat : ciphertext -> Nat.t
val of_nat : public -> Nat.t -> ciphertext
val ciphertext_bytes : public -> int
val equal_ct : ciphertext -> ciphertext -> bool
