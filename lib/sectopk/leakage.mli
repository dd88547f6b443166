(** The leakage profiles of Section 9 (and Section 10.1), computed from
    protocol transcripts so that tests can check that the servers observe
    exactly the stated leakage and nothing else.

    [L1_Query = (QP, D_q)]: the query pattern and halting depth visible to
    S1. [L2_Query = {EP^d}]: the per-depth equality patterns visible to
    S2 (under S1's random permutations). SecDupElim additionally reveals
    the uniqueness pattern UP^d. Over a sharded index S1 also learns the
    shard sizes, and each phase's patterns come one per live shard: a
    batched round carries one request per shard, each with that shard's
    own grid or matrix, so S2 never sees a cross-shard pair. *)

(** Query pattern: [qp tokens] is the repetition matrix — entry [(i, j)],
    [j <= i], is [true] iff query [i] equals query [j] (Section 9). *)
val query_pattern : Scheme.token list -> bool array array

type profile = {
  equality_rounds : int;
      (** number of equality requests S2 served: one per SecWorst
          instance, per SecUpdate block and per join test. A batched
          round carries several, so this is not the transport's round
          count. *)
  equality_bits : int list list;
      (** per round, the positions of the 1-bits (the EP pattern, already
          permuted by S1) *)
  dedup_matrices : (int * (int * int) list) list;
      (** per SecDedup call: list size and the equal pairs S2 saw *)
  uniqueness_counts : int list;  (** UP^d values revealed by SecDupElim *)
  comparisons : int;  (** EncCompare / EncSort gate count *)
  sort_sizes : int list;  (** sizes of lists S2 sorted (Blinded strategy) *)
}

(** Summarize a trace into the leakage profile. *)
val of_trace : Proto.Trace.t -> profile

(** Two profiles are indistinguishable in shape iff S2's views could have
    come from the same leakage function output: same round structure,
    same equality patterns, same cardinalities. Comparison {e outcomes}
    are excluded (they are blinded). *)
val same_shape : profile -> profile -> bool
