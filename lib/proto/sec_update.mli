(** SecUpdate (Algorithm 9): merge the current depth's de-duplicated items
    [gamma] into the running global list [T].

    For every pair (new item i, old item j) the servers obliviously test
    object equality. On a match the old entry's global worst score is
    increased by the new item's in-depth worst score and its seen vector
    absorbs the new item's. Best scores are not maintained here: SecQuery
    rewrites every [best] with SecRefresh before anything reads it, so a
    returned entry's [best] is only a placeholder.

    The appended copy of a matched new item must not survive as a second
    entry for the same object (it would break the at-most-one-match
    invariant every later equality round relies on). Following the
    SecDedup discipline this is done in one of two ways:

    - [Replace] (the fully-private SecDedup composition of Algorithm 9
      line 13): the copy is obliviously rewritten — random EHL cells, a
      sentinel worst score [Z = -1] and an all-ones seen vector, so its
      refreshed best score is [-1] too — via select gadgets, so S1 cannot tell
      which appended items were duplicates and [|T|] grows by exactly
      [|gamma|] every depth (the paper's Figure 3 garbage rows).
    - [Eliminate] (the SecDupElim optimization, Section 10.1): S2 reveals
      which (permuted) new items matched and they are dropped, leaking the
      uniqueness pattern UP^d but keeping [T] duplicate- and garbage-free.

    S1 permutes both [T] and [gamma] before the equality round, so S2
    sees each depth's grid under a fresh row and column order and cannot
    link a column to the same [T] entry across depths; the returned [T]
    is in that permuted order.

    Communication/computation are [O(|T| * |gamma|)] — the paper's
    [O(m^2 d)] per depth. Assumes [t_list] and [gamma] are individually
    duplicate-free (up to sentinel items), which SecQuery guarantees. *)

val run :
  Ctx.t ->
  mode:Sec_dedup.mode ->
  t_list:Enc_item.scored list ->
  gamma:Enc_item.scored list ->
  Enc_item.scored list

(** [run_many ctx ~mode blocks] merges several independent [(t_list,
    gamma)] blocks (one per shard) in the rounds of one block: one
    equality round carrying an [Equality] request per block, one recover
    round for every block's T-list, and one Replace-select round or one
    round of per-block [Dup_flags] requests. The grid stays
    block-diagonal: each block is permuted and blinded on its own and S2
    never sees a cross-block pair. Draws are made block after block, so
    one block is exactly {!run}. A block with an empty side passes
    through (as its other side) and sends nothing. Results are per
    block, in order. *)
val run_many :
  Ctx.t ->
  mode:Sec_dedup.mode ->
  (Enc_item.scored list * Enc_item.scored list) list ->
  Enc_item.scored list list
