(** Shared sub-protocol building blocks.

    Three idioms recur in every SecTopK sub-protocol:

    - the {e equality round}: S1 sends permuted blinded EHL differences,
      S2 decrypts them to bits [t_i] and returns them doubly encrypted as
      [E2(t_i)];
    - the {e select gadget}: from [E2(t)] with [t] a bit, S1 locally
      computes [E2(t * Enc(a) + (1-t) * Enc(b))] — an oblivious choice
      between two inner Paillier ciphertexts;
    - {e RecoverEnc} (Algorithm 5): stripping the outer DJ layer with S2's
      help, under additive blinding so S2 learns nothing about the inner
      plaintext. *)

open Bignum
open Crypto

(** Random blinding exponent drawn per the context's [blind_bits] policy
    (a unit of [Z_n] by default). *)
val blind_scalar : Ctx.s1 -> Nat.t

(** [equality_round ctx ~protocol diffs] — S1 sends the (already permuted)
    EHL differences [Enc(b_i)]; S2 decrypts each, logs the bit pattern to
    its trace, and returns [E2(t_i)] with [t_i = 1] iff [b_i = 0]
    (Lemma 5.2 semantics). One round trip. *)
val equality_round :
  Ctx.t -> protocol:string -> Paillier.ciphertext list -> Damgard_jurik.ciphertext list

(** [select s1 ~t ~if_one ~if_zero] is
    [E2(t)^if_one * (E2(1) * E2(t)^-1)^if_zero] — evaluates to
    [E2(if_one)] when [t = 1] and [E2(if_zero)] when [t = 0]. Purely
    local to S1. *)
val select :
  Ctx.s1 ->
  t:Damgard_jurik.ciphertext ->
  if_one:Paillier.ciphertext ->
  if_zero:Paillier.ciphertext ->
  Damgard_jurik.ciphertext

(** RecoverEnc (Algorithm 5): converts [E2(Enc(c))] to a fresh [Enc(c)].
    S1 blinds with [E2(Enc(c))^Enc(r)], S2 strips the outer layer and
    returns [Enc(c + r)], S1 removes [r] homomorphically. *)
val recover_enc : Ctx.t -> protocol:string -> Damgard_jurik.ciphertext -> Paillier.ciphertext

(** [select_recover ctx ~protocol ~t ~if_one ~if_zero] — the select gadget
    followed by RecoverEnc; the workhorse of SecWorst/SecUpdate/SecRefresh. *)
val select_recover :
  Ctx.t ->
  protocol:string ->
  t:Damgard_jurik.ciphertext ->
  if_one:Paillier.ciphertext ->
  if_zero:Paillier.ciphertext ->
  Paillier.ciphertext

(** Batched {!recover_enc}: one {!Ctx.rpc_batch} round for the whole
    list, element blinding drawn in list order (identical randomness to
    running {!recover_enc} per element). *)
val recover_enc_many :
  Ctx.t -> protocol:string -> Damgard_jurik.ciphertext list -> Paillier.ciphertext list

(** Batched RecoverEnc over multi-exponentiation specs: each spec is the
    pair list of one E2 accumulator [Enc2(sum_i k_i * x_i)] (layered
    Paillier scalars), evaluated together with the RecoverEnc blinding in
    a single simultaneous exponentiation per spec —
    [(prod c_i^{k_i})^e = prod c_i^{k_i * e}], so the blinding is free.
    One Dj_mul is counted per pair plus one for the absorbed blinding,
    matching the unfused accumulate-then-recover op count. *)
val recover_enc_specs :
  Ctx.t ->
  protocol:string ->
  (Damgard_jurik.ciphertext * Paillier.ciphertext) list list ->
  Paillier.ciphertext list

(** Batched {!select_recover} over [(t, if_one, if_zero)] choices. *)
val select_recover_many :
  Ctx.t ->
  protocol:string ->
  (Damgard_jurik.ciphertext * Paillier.ciphertext * Paillier.ciphertext) list ->
  Paillier.ciphertext list

(** [conjunction_round ctx ~protocol groups] — like {!equality_round}
    but each element is a {e group} of EHL differences: S2 returns
    [E2(1)] iff {e every} difference in the group decrypts to zero. Used
    by the multi-way join, whose predicate is a conjunction of equi-join
    conditions; S2 sees only the per-group verdict pattern, not the
    individual equalities. *)
val conjunction_round :
  Ctx.t -> protocol:string -> Paillier.ciphertext list list -> Damgard_jurik.ciphertext list

(** [lift ctx ~protocol cts] converts Paillier ciphertexts into DJ
    ciphertexts of the same plaintexts, in one batched round: S1 blinds
    each [Enc(v)] additively, S2 decrypts and returns [E2(v + r)], S1
    strips the blinding in the DJ layer. S2 sees only uniform values. *)
val lift :
  Ctx.t -> protocol:string -> Paillier.ciphertext list -> Damgard_jurik.ciphertext list

(** A fresh Paillier encryption of zero by S1 (the [Enc(0)] leg of the
    select gadget). *)
val enc_zero : Ctx.s1 -> Paillier.ciphertext

(** Encryption of an [int] score by S1 (non-negative). *)
val enc_int : Ctx.s1 -> int -> Paillier.ciphertext
