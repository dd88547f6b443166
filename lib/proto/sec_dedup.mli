(** SecDedup (Protocol 8.3 / Algorithm 7) and its SecDupElim optimization
    (Section 10.1).

    S1 holds scored items [Q]; after the protocol it holds a fresh list in
    which no two items encode the same object. In [Replace] mode (the
    fully-private SecDedup) every duplicate is substituted by an item with
    a random object id and worst/best scores equal to the sentinel
    [Z = n - 1] (= [-1] in the signed encoding), so the list length — and
    hence everything S1 sees — is unchanged. In [Eliminate] mode
    (SecDupElim) S2 simply drops the duplicates, which is faster and
    shrinks all downstream work but additionally reveals the number of
    distinct objects (the uniqueness pattern UP^d).

    Blinding discipline: S1 masks every component and encrypts the mask
    under its personal key [pk'] so S2 can neither read the items nor
    link the returned list to the submitted one; S2 layers its own masks
    (and a second permutation) on top so S1 cannot tell which items were
    replaced. *)

type mode = Wire.dedup_mode = Replace | Eliminate

(** [run ctx ~mode items] — S2 learns only the permuted pairwise equality
    pattern (and, in [Eliminate] mode, S1 additionally learns the distinct
    count). If duplicates carry different scores the kept copy's scores
    are those of one of the duplicates (callers must ensure duplicates
    agree, which SecWorst guarantees). *)
val run : Ctx.t -> mode:mode -> Enc_item.scored list -> Enc_item.scored list

(** [run_many ctx ~mode blocks] de-duplicates several independent blocks
    (one per shard) in one round: one [Dedup] request per block, all in
    one batch, so S2 sees each block's own matrix and never a
    cross-block pair. Permutations, masks and the matrix are drawn block
    after block; {!run} is [run_many] on one block. An empty block passes
    through and sends nothing. Results are per block, in order. *)
val run_many : Ctx.t -> mode:mode -> Enc_item.scored list list -> Enc_item.scored list list
