(** Oblivious best-score refresh.

    The NRA upper bound of a candidate shrinks every depth as the lists'
    bottom values drop (Figure 3: X4's bound goes 26 -> 23 -> 16 without
    X4 reappearing). The servers therefore recompute, at every halting
    checkpoint, [B(o) = W(o) + sum over lists l with seen_l(o) = 0 of
    bottom_l] — exactly the NRA definition, since [W] is the sum of the
    known (weighted) scores.

    The seen indicators live in [T] as Paillier bits; they are lifted to
    the DJ layer in one batched blinded round ({!Gadgets.lift_many}) and
    each per-list bottom is then included or suppressed with a select
    gadget.
    Sentinel items carry all-ones indicators, so their refreshed bound
    stays [W = -1] and they keep sinking in the sort. *)

open Crypto

(** [run ctx ~items ~bottoms] returns the items with refreshed [best]
    fields. [bottoms] are the current per-list encrypted bottom scores, in
    the same order as the items' [seen] vectors. It is {!run_many} on one
    block. *)
val run :
  Ctx.t ->
  items:Enc_item.scored list ->
  bottoms:Paillier.ciphertext array ->
  Enc_item.scored list

(** [run_many ctx blocks] refreshes several independent [(items,
    bottoms)] blocks (one per shard) in the two rounds of one block: one
    lift round carrying a [Lift] request per block, then one recover
    round for every block's selections. Draws are made block after block;
    a block with no items passes through and sends nothing. Results are
    per block, in order. *)
val run_many :
  Ctx.t ->
  (Enc_item.scored list * Paillier.ciphertext array) list ->
  Enc_item.scored list list
