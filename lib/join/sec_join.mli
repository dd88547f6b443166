(** The secure top-k join operator [join_sec] (Section 12.4, Algorithm 11).

    S1 combines every tuple pair in random order, in one {e join pick}
    round (DESIGN §3a item 16): for each pair S1 sends the EHL ⊖
    difference of the join attributes and the pair's score and carried
    attributes, each masked by a fresh uniform [rho]; S2 answers the
    predicate bit [t] and [t * (x + rho)] per field as fresh encryptions,
    and S1 removes [rho], so a non-matching pair collapses to encryptions
    of 0. S2 learns only the (permuted) predicate bit pattern; every
    other value it decrypts is uniform.

    Scores of matching pairs are offset by +1 under encryption so that a
    legitimate all-zero score survives SecFilter; the offset is removed
    after filtering (see DESIGN.md). *)

open Crypto

type joined = {
  score : Paillier.ciphertext;  (** [t * (score_l + score_r + 1)] *)
  attrs : Paillier.ciphertext array;  (** [t * x] for every carried attribute *)
}

(** All [n1 * n2] combined pairs, matching ones carrying real values:
    one round. *)
val combine :
  Proto.Ctx.t ->
  Join_scheme.enc_relation ->
  Join_scheme.enc_relation ->
  Join_scheme.token ->
  joined list

(** [combine_pairs ctx e1 e2 tk pairs] combines only the tuple pairs
    [(i, j)] listed, as {!combine} does all of them: one round. The
    rank-join runs it once per diagonal. *)
val combine_pairs :
  Proto.Ctx.t ->
  Join_scheme.enc_relation ->
  Join_scheme.enc_relation ->
  Join_scheme.token ->
  (int * int) list ->
  joined list

(** SecFilter (Algorithm 12): drop the collapsed (score 0) tuples under
    two-sided blinding; S2 learns only how many tuples survive. *)
val filter : Proto.Ctx.t -> joined list -> joined list

(** The full operator: combine, filter, remove the score offset, sort by
    score descending (blinded sort through S2) and keep the top [k]. *)
val top_k : Proto.Ctx.t -> Join_scheme.enc_relation -> Join_scheme.enc_relation ->
  Join_scheme.token -> joined list

(** {2 Multi-way joins}

    The L-relation generalization of Section 12: a chain of equi-join
    conditions evaluated as one conjunction per cross-product combination,
    in one join pick whose groups hold each combination's L - 1
    differences (S2 records only the per-combination verdict pattern). *)

type multi_spec = {
  chain : (int * int) list;
  score_attrs : int list;
  k : int;
}

(** Build a spec from {e original} attribute indices, mapping them through
    the client's keyed permutations. [ms] are the relations' attribute
    counts; [chain] pairs [(attr of R_i, attr of R_(i+1))]. *)
val spec_of_token :
  Join_scheme.secret_key ->
  ms:int list ->
  chain:(int * int) list ->
  score_attrs:int list ->
  k:int ->
  multi_spec

val top_k_multi :
  Proto.Ctx.t -> Join_scheme.enc_relation list -> multi_spec -> joined list

(** {2 Rank-join over pre-sorted relations}

    The paper's future-work optimization: relations encrypted with
    {!Join_scheme.encrypt_pair_sorted} are explored best-score-first and
    the scan halts once the k-th matched score dominates every unexplored
    pair. S1 additionally learns the halting diagonal and blinded
    comparisons of frontier score sums. *)

type sorted_stats = { pairs_explored : int; pairs_total : int; halted_early : bool }

val top_k_sorted_stats :
  Proto.Ctx.t -> Join_scheme.enc_relation -> Join_scheme.enc_relation -> Join_scheme.token ->
  joined list * sorted_stats

val top_k_sorted :
  Proto.Ctx.t -> Join_scheme.enc_relation -> Join_scheme.enc_relation -> Join_scheme.token ->
  joined list
