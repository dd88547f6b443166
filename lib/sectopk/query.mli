(** SecQuery (Algorithm 3): oblivious NRA over an encrypted relation.

    Three variants, matching the paper's evaluation:
    - [Full] — Qry_F: fully private; duplicates become sentinel garbage
      (SecDedup / Replace) so the running list [T] grows by [m] every
      depth and S1 learns nothing but the halting depth.
    - [Elim] — Qry_E: SecDupElim everywhere; [T] stays duplicate-free and
      small at the cost of revealing the uniqueness pattern UP^d.
    - [Batched p] — Qry_Ba: like [Elim], but EncSort and the halting test
      run only every [p] depths (Section 10.2), [p >= k].

    The halting test sorts [T] by worst score and, following the NRA
    condition, halts when the best score of every candidate outside the
    top-k — and of every unseen object (bounded by the sum of the current
    bottom scores) — is at most the k-th worst score. The paper's
    literal Algorithm 3 line 10 checks only the (k+1)-th candidate, which
    can halt early on adversarial data (DESIGN.md §3a item 3).

    Best scores come from SecRefresh alone (DESIGN §3a items 1 and 13):
    it rewrites every candidate's [best] right before each halting test
    and before a best-effort return, so the per-depth SecBest scan of the
    paper's Algorithm 3 is not run. *)

type variant = Full | Elim | Batched of int

type options = {
  variant : variant;
  sort : Proto.Enc_sort.strategy;
  max_depth : int option;  (** Cap on scanned depths (benchmarks). *)
}
(** The halting tests compare with the blinded-sign EncCompare
    ({!Proto.Enc_compare.leq_many}). The per-depth fan-outs run at the
    context's width ([ctx.domains], see {!Proto.Ctx.map}); results and
    traces are identical for every width. *)

val default_options : options

type result = {
  top : Proto.Enc_item.scored list;  (** encrypted top-k, descending worst score. *)
  halting_depth : int;  (** depths scanned (the leakage [D_q]). *)
  halted : bool;  (** [false] if stopped by [max_depth] only. *)
  depth_seconds : float array;  (** wall-clock per scanned depth. *)
}

val run : Proto.Ctx.t -> Scheme.encrypted_relation -> Scheme.token -> options -> result
(** [run ctx er tk options] is [run_sharded ctx [| er |] tk options]
    without the checkpoint count. *)

val run_sharded :
  Proto.Ctx.t -> Scheme.encrypted_relation array -> Scheme.token -> options -> result * int
(** The one NRA depth loop, over a horizontally sharded index
    ({!Scheme.encrypt_sharded}: one secret key, disjoint pseudo-random row
    sets). It also returns the number of halting checkpoints it ran.

    All shards advance through a {e global depth barrier}: at depth [d]
    every live shard contributes its depth-[d] row, and every phase of
    the depth sends one frame covering every live shard. The per-list
    SecWorst instances of the whole fleet share one [Worst_pick] batch;
    SecDedup, SecUpdate and SecRefresh run once over one block per
    shard ({!Proto.Sec_dedup.run_many} and its siblings). So the rounds
    of a depth do not depend on the shard count. Dedup and
    the running-list merge stay shard-local: each block is permuted and
    masked on its own, and the SecUpdate grid is block-diagonal, because
    cross-shard pairs encode distinct objects by construction. Each
    checkpoint sorts the {e concatenation} of the shard lists and runs
    one NRA bound test with a per-shard unseen bound.

    An unseen object lives in exactly one shard, so its best possible
    score is bounded by that shard's bottom-score sum. A shard scanned to
    its full depth has no unseen objects and drops out of the test.
    Per-shard local halting would be unsound: a shard may hold a
    candidate whose global rank is undercut by another shard's deeper
    rows. That is why the barrier is global and only the bound test is
    per-shard.

    Every phase runs on [ctx] itself, at any shard count: one S2
    session, one generator. With one shard every block list is a
    singleton, which frames and draws exactly as the unsharded phases.
    Leakage beyond SecQuery's own per-depth pattern (now per shard): the
    per-shard row counts (public in the shard map) and the depth at
    which each shard is exhausted, which those counts determine.

    @raise Invalid_argument on an empty shard array, an empty token, or
    shards that disagree on the attribute count. *)
