(** SecUpdate (Algorithm 9): merge the current depth's de-duplicated items
    [gamma] into the running global list [T].

    For every pair (new item i, old item j) the servers obliviously test
    object equality. On a match the old entry's global worst score is
    increased by the new item's in-depth worst score and its seen vector
    absorbs the new item's. It is one pick (DESIGN §3a item 15): S1
    sends the blinded grid and each new item's fields masked by fresh
    uniform [rho]; S2 decrypts the equality bits, which it records, and
    the uniform masked values, and answers per old entry and merged field
    [Enc(sum_i t_ij * (x_if + rho_if))] and per grid cell a fresh
    [Enc(t_ij)]; S1 removes the masks with one multi-exponentiation per
    field. Best scores are not maintained here: SecQuery
    rewrites every [best] with SecRefresh before anything reads it, so a
    returned entry's [best] is only a placeholder.

    The appended copy of a matched new item must not survive as a second
    entry for the same object (it would break the at-most-one-match
    invariant every later equality round relies on). Following the
    SecDedup discipline this is done in one of two ways:

    - [Replace] (the fully-private SecDedup composition of Algorithm 9
      line 13): the copy is obliviously rewritten — random EHL cells, a
      sentinel worst score [Z = -1] and an all-ones seen vector, so its
      refreshed best score is [-1] too. S2 answers [Enc(d_i)] and
      [Enc(d_i * u)] per field with [d_i = OR_j t_ij], and S1 rewrites
      every appended item from them, so S1 cannot tell which appended
      items were duplicates and [|T|] grows by exactly [|gamma|] every
      depth (the paper's Figure 3 garbage rows).
    - [Eliminate] (the SecDupElim optimization, Section 10.1): S2 reveals
      the flags [d_i] of the (permuted) new items in plaintext, records
      their count as UP^d, and S1 drops the flagged ones, keeping [T]
      duplicate- and garbage-free. S1 thereby learns which of its
      permuted new items matched (SECURITY.md).

    S1 permutes both [T] and [gamma] before the pick, so S2
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
    gamma)] blocks (one per shard) in one round: one [Update_pick]
    request per block. The grid stays block-diagonal: each block is
    permuted and blinded on its own and S2 never sees a cross-block pair.
    Draws are made block after block on the calling domain, so one block
    is exactly {!run}; the diffs, masks and unmasking fan out. A block
    with an empty side passes through (as its other side) and sends
    nothing. Results are per block, in order. Raises [Proto_error] on a
    reply of the wrong shape. *)
val run_many :
  Ctx.t ->
  mode:Sec_dedup.mode ->
  (Enc_item.scored list * Enc_item.scored list) list ->
  Enc_item.scored list list
