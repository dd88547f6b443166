(** Scatter-gather SecQuery over a horizontally sharded encrypted index.

    The coordinator is {!Sectopk.Query.run_sharded}, the repo's one NRA
    depth loop; this module adds the counters the server exports. *)

type stats = {
  shards : int;
  merge_rounds : int;
      (** Halting checkpoints executed, at every shard count (one shard
          included): each is one global sort plus one batched bound test,
          independent of the shard count. A best-effort return at
          [max_depth] is not a checkpoint. *)
}

(** [run ctx ers tk options] — top-k over the shard set [ers]. With one
    shard this {e is} [Sectopk.Query.run ctx ers.(0) tk options]: same
    rng draws, same traffic, same result. [halting_depth] reports the
    global barrier depth at which the NRA condition held. *)
val run :
  Proto.Ctx.t ->
  Sectopk.Scheme.encrypted_relation array ->
  Sectopk.Scheme.token ->
  Sectopk.Query.options ->
  Sectopk.Query.result

(** Like {!run}, also reporting coordinator counters (server gauges). *)
val run_with_stats :
  Proto.Ctx.t ->
  Sectopk.Scheme.encrypted_relation array ->
  Sectopk.Scheme.token ->
  Sectopk.Query.options ->
  Sectopk.Query.result * stats
