(** What the Crypto Cloud S2 actually observes during query processing.

    Each sub-protocol appends the *decrypted view* S2 obtains to this log.
    The tests' [Leakage] module (test/leakage.ml) reduces a trace to the
    paper's leakage profiles, and the security tests assert that traces of databases that
    agree on the leakage are identically distributed in shape. *)

type event =
  | Equality_bits of { protocol : string; bits : bool list }
      (** The [t_i] bits S2 derives while serving SecWorst / SecUpdate
          (already under S1's random permutation). *)
  | Dedup_matrix of { protocol : string; size : int; equal_pairs : (int * int) list }
      (** The permuted pairwise-equality matrix decrypted in SecDedup. *)
  | Comparison of { protocol : string; ordering : int }
      (** Sign of a blinded difference ([-1], [0], [1]) seen in
          EncCompare / EncSort gates. *)
  | Count of { protocol : string; value : int }
      (** A cardinality S2 learns (e.g. surviving tuples in SecFilter,
          distinct items in SecDupElim). *)

type t

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list

(** Events in order of occurrence. *)
val length : t -> int

val clear : t -> unit

(** [append_into src ~into] appends all of [src]'s events to [into] in
    order. Sub-traces of parallel batches are appended in task-index
    order, so the merged trace is identical to a serial run's. *)
val append_into : t -> into:t -> unit
