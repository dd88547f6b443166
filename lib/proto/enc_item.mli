(** Encrypted data items as held by S1.

    An [entry] is one cell of an encrypted sorted list:
    [E(I) = (EHL(o), Enc(x))] (Section 6). A [scored] item is an entry of
    the running top-k list [T]:
    [E(I) = (EHL(o), Enc(W), Enc(B))] (Section 8.1). *)

open Crypto

type entry = { ehl : Ehl.Ehl_plus.t; score : Paillier.ciphertext }

(** A candidate as it travels through SecDedup (Algorithm 7): a [scored]
    item without [best]. Every new candidate starts with [best = worst]
    and SecRefresh rewrites [best] before anything reads it, so S1 sets
    [best := worst] when it unmasks instead of masking a value nobody
    reads. *)
type masked = {
  ehl : Ehl.Ehl_plus.t;
  worst : Paillier.ciphertext;
  seen : Paillier.ciphertext array;
}

type scored = {
  ehl : Ehl.Ehl_plus.t;
  worst : Paillier.ciphertext;
  best : Paillier.ciphertext;
  seen : Paillier.ciphertext array;
      (** Encrypted 0/1 indicator per queried list: has this object
          appeared in that list within the scanned prefix? Derived from
          SecWorst's equality round and merged by SecUpdate; drives the
          oblivious best-score refresh [B = W + sum of unseen bottoms]
          (the per-depth upper-bound updates visible in Figure 3). *)
}

(** Blinding escrow attached to a {!masked} item in SecDedup
    (Algorithm 7): one mask per EHL cell, worst and seen slot, each
    encrypted under S1's personal key [pk'] so S2 can layer its own masks
    homomorphically without reading them. *)
type pack = {
  alphas : Paillier.ciphertext array;
  beta : Paillier.ciphertext;
  sigmas : Paillier.ciphertext array;
}

(** [rerandomize_scored rng pub s] multiplies every ciphertext of [s]
    by a fresh noise factor from [rng], drawn in field order (EHL cells,
    worst, best, seen). *)
val rerandomize_scored : Rng.t -> Paillier.public -> scored -> scored
