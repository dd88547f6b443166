(** Damgård–Jurik generalised Paillier (PKC'01) with [s = 2].

    Plaintext space [Z_{n^2}], ciphertext space [Z_{n^3}^*]. The paper
    builds RecoverEnc, SecWorst, SecBest, SecUpdate and SecJoin on the
    "layered" encryption [E2(Enc(m))] this scheme allows; here no
    protocol does (they pick in Paillier alone, DESIGN §3a items 14–16).
    What is left serves the benchmark's unit-cost probe: key derivation,
    encryption, decryption and scalar multiplication. *)

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

(** [encrypt rng pub x] encrypts [x mod n^2]: [(1+n)^x * r^(n^2) mod n^3]. *)
val encrypt : Rng.t -> public -> Nat.t -> ciphertext

(** CRT decryption with exponents [p-1] and [q-1] (Damgård, Jurik and
    Nielsen). Raises [Invalid_argument "Damgard_jurik.decrypt:
    ciphertext is not a unit"] when [p] or [q] divides the ciphertext
    (no encryption is such a value). *)
val decrypt : secret -> ciphertext -> Nat.t

(** [scalar_mul pub c k] encrypts [k] times [c]'s plaintext. *)
val scalar_mul : public -> ciphertext -> Nat.t -> ciphertext
