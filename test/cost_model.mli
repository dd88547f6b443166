(** Closed-form op counts for the paper's sub-protocols (Algorithms 3-8),
    the oracle test_obs compares measured counters against. *)

open Obs

type params = {
  cells : int;  (** EHL+ cells per item (the paper's s) *)
  seen : int;  (** seen-vector width (number of source lists, m) *)
  ct : int;  (** Paillier ciphertext bytes under the S2 keypair *)
  own_ct : int;  (** Paillier ciphertext bytes under S1's own keypair *)
  req_base : int;
      (** Wire request-frame header bytes excluding the label
          ([Wire.request_header_bytes ~label:""]) *)
  resp_base : int;  (** Wire response-frame header bytes *)
}

type counts = {
  penc : int; pdec : int; pmul : int; prr : int;
  bytes : int; msgs : int; rounds : int;
}

val zero : counts
val to_alist : counts -> (Metrics.op * int) list

val enc_compare : params -> counts
val sec_worst : params -> others:int -> counts

val sec_dedup :
  params -> mode:[ `Replace | `Eliminate ] -> items:int -> dups:int -> counts

val enc_sort_blinded : params -> items:int -> counts

(** Field-wise total of per-phase counts. *)
val sum : counts list -> counts

(** [Enc_compare.leq_many] over [pairs] comparisons — one batch round;
    equals {!enc_compare} at one pair. *)
val enc_compare_many : params -> pairs:int -> counts

(** [Sec_worst.run_many] over one instance per element of [others]
    (its candidate-list width): crypto ops are the sum of the singleton
    bodies, while every instance's pick shares one batch — one round
    regardless of instance count, which is what keeps the sharded
    depth loop's round count flat. Equals {!sec_worst} at a single
    instance. *)
val sec_worst_many : params -> others:int list -> counts

(** One halting checkpoint ({!shard_merge}[ ~items ~k ~bounds]
    — [items] concatenated candidates, [bounds] non-exhausted shards):
    one blinded sort plus one batched NRA bound test; two rounds flat
    in the shard count. With [items < k] only the sort runs. *)
val shard_merge : params -> items:int -> k:int -> bounds:int -> counts
