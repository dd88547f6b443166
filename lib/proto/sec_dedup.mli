(** SecDedup (Protocol 8.3 / Algorithm 7) and its SecDupElim optimization
    (Section 10.1).

    S1 holds scored items [Q]; after the protocol it holds a fresh list in
    which no two items encode the same object. Both modes send S2 the
    pairwise blinded EHL differences of S1's permuted items, and S2
    keeps the highest index of every duplicate group.

    - [Replace] (the fully-private SecDedup) is a pick (DESIGN §3a item
      15): S1 sends every field masked by a fresh uniform [rho]; S2
      answers [Enc(d)] and [Enc(d * u)] per field, [d] marking a
      non-kept duplicate, and S1 rewrites each item in place into
      itself or into garbage — random EHL cells, worst [Z = n - 1]
      (= [-1] signed) and an all-ones seen vector — so the list length,
      and everything S1 sees, is unchanged.
    - [Eliminate] (SecDupElim) keeps Algorithm 7's masked path: S1 masks
      every component and escrows the masks under its personal key
      [pk']; S2 drops the duplicates, layers its own masks and a second
      permutation on the rest, and S1 strips the masks. It is faster and
      shrinks all downstream work but reveals the number of distinct
      objects (the uniqueness pattern UP^d). *)

type mode = Wire.dedup_mode = Replace | Eliminate

(** [run ctx ~mode items] — S2 learns only the permuted pairwise equality
    pattern (and, in [Eliminate] mode, S1 additionally learns the distinct
    count). If duplicates carry different scores the kept copy's scores
    are those of one of the duplicates (callers must ensure duplicates
    agree, which SecWorst guarantees). *)
val run : Ctx.t -> mode:mode -> Enc_item.scored list -> Enc_item.scored list

(** [run_many ctx ~mode blocks] de-duplicates several independent blocks
    (one per shard) in one round: one [Dedup_pick] ([Replace]) or
    [Dedup] ([Eliminate]) request per block, all in one batch, so S2 sees
    each block's own matrix and never a cross-block pair. Permutations,
    masks and the matrix are drawn block after block; {!run} is
    [run_many] on one block. An empty block passes through and sends
    nothing. Results are per block, in order. Raises [Proto_error] on a
    reply of the wrong shape. *)
val run_many : Ctx.t -> mode:mode -> Enc_item.scored list list -> Enc_item.scored list list
