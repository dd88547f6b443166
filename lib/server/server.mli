(** Multi-client S1 serving front-end.

    One listener accepts client connections on loopback TCP; each
    connection gets a session that speaks the {!Proto.Wire} client
    frames: a [Server_hello] announcing the index shape, then
    [Query_req]/[Query_resp] pairs. Queries are scheduled onto a
    persistent bounded {!Core.Service} crew of [workers] domains —
    admission-queue overflow answers a typed [Busy] immediately, never
    stalls the connection. Each query's context has width [workers]:
    its fan-outs ({!Core.Pool}) borrow the other workers while they are
    parked idle, and run inline while they serve queries. A connection that arrives when the runtime has no free
    domain for its session is answered [Busy] in place of the hello and
    closed; the listener keeps accepting. So it does when [accept] fails
    for want of descriptors or kernel memory: the failure is counted in
    [accept_errors] and the listener backs off briefly
    ({!Proto.Transport.accept}). A length prefix above
    [Wire.max_client_frame] closes the connection before any payload is
    read.

    Keys are derived once, at {!start} ({!Proto.Ctx.provision} with the
    server's seed, then {!Proto.Ctx.derive}). Every query's context
    starts from copies of that derived state ({!Proto.Ctx.of_derived}):
    the state a fresh seeded provision reaches, so each response is
    byte-identical to what the sequential in-process path produces for
    the same token — the property the concurrency tests pin down.

    S2 placement and round coalescing: every query parks each round at
    one shared {!Proto.Sched} whose shipper merges every concurrent
    query's next op into one multiplexed S2 trip. [Local] demultiplexes
    in-process; [Tcp addr] dials a serve-s2 daemon once at {!start}
    (re-dialing after a lost connection), provisions it through the
    Hello handshake and ships mux frames over that single connection;
    each query's [Mux_open] makes S2 start that query's responder from
    a copy of the state the connection derived once
    ({!Proto.S2_server.provision}, which [Local] runs once at {!start}).
    Per-query results, traces and op counters are byte-identical to the
    sequential Inproc path; only the shared trip count drops — with [q]
    concurrent queries in lockstep, toward 1/q of the per-query total.
    The registry gains [parked_queries], [coalesced_rounds] and
    [rounds_saved]. *)

(** Structured query logging configuration (re-exported — the library's
    main module hides its siblings from the outside). *)
module Qlog = Qlog

type s2_mode = Local | Tcp of Unix.sockaddr

(** What the front-end serves: one store, or the shards of a
    horizontally partitioned index ({!Store.Sharded}). Sharded queries
    run through the {!Shard} scatter-gather coordinator — clients see
    one logical relation (the [Server_hello] row count is the total) and
    the registry gains the [shards] gauge plus [shard_queries] /
    [shard_merge_rounds] counters ([shard_merge_rounds] counts halting
    checkpoints for every index, [Single] included). A [Sharded] array
    of one behaves exactly like [Single]. *)
type index = Single of Store.t | Sharded of Store.t array

type config = {
  seed : string;  (** provisioning seed; must match what built the index *)
  key_bits : int;
  rand_bits : int option;
  blind_bits : int;
  workers : int;  (** worker domains executing queries *)
  queue_depth : int;  (** admitted-but-waiting bound beyond free workers *)
  options : Sectopk.Query.options;
  s2 : s2_mode;
  qlog : Qlog.config;  (** structured query log / slow-query / trace sampling *)
  coalesce_window_us : int;
      (** how long the round scheduler's oldest parked op waits for
          stragglers before a merged trip ships anyway (it ships
          immediately once every in-flight query is parked); [0] ships
          whatever is parked on every wake, so only ops that happen to
          park together share a trip. Default 150. *)
}

val default_config : config

(** Historical scalar record, now a view derived from the registry
    ({!registry}): counters read directly, the second totals recovered
    from the microsecond histogram sums. *)
type stats = {
  served : int;  (** queries answered with results *)
  busy : int;  (** connections bounced with [Busy] *)
  errors : int;  (** queries answered with [Server_error] *)
  queue_seconds : float;  (** total admission-to-start latency *)
  query_seconds : float;  (** total execution wall clock *)
}

type t

(** [start ~port config index] binds 127.0.0.1:[port] ([port = 0] for
    ephemeral — read it back with {!port}), derives the keys, spawns the
    listener and the worker pool, and returns immediately. The noise
    combs are warmed once here, by the derivation, for the whole serving
    set (the [comb_warmup_seconds] and [combs_built] gauges), never per
    shard or per query; the two negated-noise combs S1's strips use are
    built by the first query, once per process. *)
val start : ?port:int -> config -> index -> t

val port : t -> int
val stats : t -> stats

(** Live telemetry: counters ([served]/[busy]/[errors]/[accept_errors]), load gauges
    ([queue_depth], [in_flight_queries], [open_sessions],
    [worker_utilization]) and per-query histograms ([queue_wait_us],
    [exec_us], [query_rounds], [query_bytes], [query_depth]).
    Histograms record on every query whether or not {!Obs} is enabled;
    the registry's mutex makes concurrent scrapes torn-read-free.  Any
    client connection can fetch a snapshot live with a [Wire.Stats_req]
    control frame ({!Proto.Transport.scrape_stats}). *)
val registry : t -> Obs.Registry.t

(** Per-query observability collectors merged in completion order
    (meaningful only when {!Obs.is_enabled}). *)
val obs : t -> Obs.Collector.t

(** Graceful drain: stop accepting connections, finish every admitted
    query and deliver its response, then close sessions and join every
    domain. Idempotent. *)
val shutdown : t -> unit
