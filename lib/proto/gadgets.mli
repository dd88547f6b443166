(** Shared sub-protocol building blocks.

    Three idioms recur in every SecTopK sub-protocol:

    - the {e equality round}: S1 sends permuted blinded EHL differences,
      S2 decrypts them to bits [t_i] and returns them doubly encrypted as
      [E2(t_i)];
    - the {e select gadget}: from [E2(t)] with [t] a bit, S1 locally
      computes [E2(t * Enc(a) + (1-t) * Enc(b)) = E2(Enc(b)) *
      E2(t)^(Enc(a) - Enc(b))] — an oblivious choice between two inner
      Paillier ciphertexts, one exponentiation of [E2(t)];
    - {e RecoverEnc} (Algorithm 5): stripping the outer DJ layer with S2's
      help, under additive blinding so S2 learns nothing about the inner
      plaintext.

    A select is never computed on its own: {!select_recover_many} and
    {!recover_enc_specs} fold RecoverEnc's blinding into the select's
    exponentiation and strip it with an encryption of its negation from
    the same noise draw, so S1 runs no full-width negation on this
    path. *)

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

(** [equality_round_many ctx ~protocol blocks] — one round for several
    independent blocks of differences: one [Equality] request per block,
    all in one {!Ctx.rpc_batch}, so no request mixes two blocks. Returns
    the per-block bits; a single block frames as {!equality_round}. *)
val equality_round_many :
  Ctx.t -> protocol:string -> Paillier.ciphertext list list -> Damgard_jurik.ciphertext list list

(** One E2 accumulator [E2(offset + sum_i k_i * x_i)] over terms
    [(c_i, k_i)] with [c_i = E2(x_i)]. The offset and the [k_i] are DJ
    plaintexts (elements of [Z_{n^2}]): Paillier ciphertexts and their
    differences mod [n^2]. *)
type spec = { offset : Nat.t; terms : (Damgard_jurik.ciphertext * Nat.t) list }

(** RecoverEnc (Algorithm 5) of every spec, in one {!Ctx.rpc_batch}
    round: a spec whose DJ plaintext is [Enc(m)] comes back as a fresh
    encryption of [m]. S1 blinds with a fresh [e = Enc(r)], sending
    [trivial(offset * e) * prod c_i^(k_i * e)] (one simultaneous
    exponentiation per spec); S2 strips the outer layer and returns
    [Enc(m) * e = Enc(m + r)]; S1 multiplies in the encryption of [-r]
    from [e]'s own noise draw. The blindings are drawn in list order.
    Counts one Dj_mul per term plus one for the absorbed blinding, and
    two Paillier encryptions per spec. *)
val recover_enc_specs : Ctx.t -> protocol:string -> spec list -> Paillier.ciphertext list

(** The select gadget followed by RecoverEnc over [(t, if_one, if_zero)]
    choices: the spec with offset [if_zero] and the one term
    [(t, if_one - if_zero)]. The workhorse of SecWorst, SecUpdate and
    SecJoin. *)
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

(** [pass_through blocks ~pass f] runs a phase over per-shard blocks:
    a block for which [pass] returns [Some out] passes through as [out]
    and costs nothing; [f] runs once, on the remaining blocks in order
    (and not at all when none remain), and its results are put back in
    their blocks' places. *)
val pass_through : 'a list -> pass:('a -> 'b option) -> ('a list -> 'b list) -> 'b list

(** [chunks sizes arr] cuts [arr] into consecutive lists of the given
    sizes: the per-block view of a fan-out or batch that ran over the
    concatenation of several blocks. *)
val chunks : int list -> 'a array -> 'a list list

(** [strip s1 c m] is [c] minus a fresh encryption of [m] by S1:
    bit-identical to [Paillier.sub c (Paillier.encrypt s1.rng m)] and
    drawing the same noise, but the encryption of [-m] comes from
    {!Paillier.encrypt_neg_with}, so no full-width negation runs.
    Counts one Paillier encryption. *)
val strip : Ctx.s1 -> Paillier.ciphertext -> Nat.t -> Paillier.ciphertext

(** A fresh Paillier encryption of zero by S1 (the [Enc(0)] leg of the
    select gadget). *)
val enc_zero : Ctx.s1 -> Paillier.ciphertext
