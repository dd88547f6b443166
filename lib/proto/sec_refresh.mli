(** Oblivious best-score refresh.

    The NRA upper bound of a candidate shrinks every depth as the lists'
    bottom values drop (Figure 3: X4's bound goes 26 -> 23 -> 16 without
    X4 reappearing). The servers therefore recompute, at every halting
    checkpoint, [B(o) = W(o) + sum over lists l with seen_l(o) = 0 of
    bottom_l] — exactly the NRA definition, since [W] is the sum of the
    known (weighted) scores.

    One Paillier round per block, in which S2 decrypts only uniform
    values. S1 masks each list's bottom with a fresh [rho_l] uniform over
    [Z_n] and sends every seen bit [s] XOR a fresh coin [c], as [Enc(s)]
    or [Enc(1 - s) = (1 + n) * s^-1], rerandomized. S2 decrypts
    [v_l = b_l + rho_l] and the bit [b = s XOR c] and answers
    [r = Enc(b * v_l)], a fresh encryption. S1 strips the masks:
    [(1 - s) * b_l = r - (1 - s) * rho_l] after a flip and
    [b_l - r + s * rho_l] otherwise, one [m]-term multi-exponentiation
    per item. S2 sees [m] values uniform on [Z_n] and [|T| * m] bits
    uniform on [{0, 1}] per block and records nothing (DESIGN §3a.14).
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
    bottoms)] blocks (one per shard) in one round: one [Refresh] request
    per block, all in one batch. Every draw is made on the calling
    domain, block after block (per list a mask and its noise, then per
    pair a coin and a noise draw); only deterministic work fans out. A
    block with no items passes through and sends nothing. Results are
    per block, in order. Raises {!Proto_error.Proto_error} when a reply
    is not one ciphertext per pair. *)
val run_many :
  Ctx.t ->
  (Enc_item.scored list * Paillier.ciphertext array) list ->
  Enc_item.scored list list
