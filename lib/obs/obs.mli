(** Observability: op counters, hierarchical timed spans, reporting,
    Chrome trace export, and the closed-form protocol cost model.

    The subsystem is off by default (hooks cost one flag test); enable it
    with {!set_enabled} or the [OBS_ENABLED=1] environment variable.
    Counters and span trees are deterministic for every [--domains] width:
    only wall-clock times vary, and {!Report.render} can exclude them. *)

module Metrics : sig
  type op =
    | Paillier_enc
    | Paillier_dec
    | Paillier_mul
    | Paillier_rerand
    | Dj_enc
    | Dj_dec
    | Dj_mul
    | Dj_rerand
    | Modexp
    | Modexp_fixed_base  (** modexps answered from a precomputed comb table *)
    | Prf_eval
    | Bytes_sent
    | Msgs
    | Rounds
    | Store_read_bytes  (** bytes read from the on-disk index store *)
    | Cache_hit  (** store block-cache hits *)
    | Cache_miss  (** store block-cache misses (each implies a disk read) *)

  val all : op list
  val name : op -> string

  type t

  val create : unit -> t
  val get : t -> op -> int
  val add : t -> op -> int -> unit
  val snapshot : t -> t
  val sub : t -> t -> t
  val merge_into : t -> into:t -> unit
  val is_zero : t -> bool
  val to_alist : t -> (op * int) list
end

module Span : sig
  type t

  val name : t -> string
  val seconds : t -> float
  val ops : t -> Metrics.t
end

module Collector : sig
  type t

  val create : unit -> t
  val metrics : t -> Metrics.t
  val roots : t -> Span.t list

  val enter : t -> string -> unit
  val exit : t -> unit

  (** Sum [src]'s counters into [into] and graft [src]'s root spans under
      [into]'s innermost open span (or its roots).  [src] must have no
      open span.  Calling this in task-index order after a parallel
      section keeps the merged tree width-independent. *)
  val merge_into : t -> into:t -> unit

  val is_empty : t -> bool
end

(** Fixed-bucket log-scale histogram for latencies and sizes.

    Values 0..7 get exact buckets; every octave [2^e, 2^(e+1)) above is
    split into 8 equal sub-buckets, so any quantile read off the bucket
    upper bounds over-estimates the true sample quantile by at most
    12.5% (+1 for integer rounding).  Recording is allocation-free
    (one index computation, one increment); merging is element-wise
    addition, hence associative, commutative, and byte-identical across
    [--domains] widths.  A [t] is not itself thread-safe — share one via
    {!Registry} or merge per-domain instances. *)
module Hist : sig
  type t

  val create : unit -> t
  val clear : t -> unit

  (** Record a non-negative integer observation (negatives clamp to 0). *)
  val record : t -> int -> unit

  (** Record a duration as integer microseconds. *)
  val record_seconds : t -> float -> unit

  val count : t -> int
  val sum : t -> int
  val min_value : t -> int
  val max_value : t -> int
  val is_empty : t -> bool
  val mean : t -> float

  val merge_into : t -> into:t -> unit
  val snapshot : t -> t

  (** [(inclusive upper bound, count)] for every non-empty bucket,
      ascending. *)
  val buckets : t -> (int * int) list

  (** Upper bound of the bucket holding the [ceil (q * count)]-th
      smallest observation, clamped to the recorded extremes; [0] when
      empty. *)
  val quantile : t -> float -> int

  (** {!quantile} scaled back from microseconds to seconds, for
      histograms filled with {!record_seconds}. *)
  val quantile_seconds : t -> float -> float

  (** Bucket index / inclusive upper bound of the scheme — exposed for
      property tests. *)
  val bucket_index : int -> int

  val bucket_upper : int -> int
  val n_buckets : int
end

(** A named registry of counters, gauges and histograms with a
    Prometheus-style text exposition and a JSON snapshot codec.

    All mutations and {!Registry.snapshot} synchronise on one mutex, so
    a scrape taken while worker domains are recording never observes a
    torn histogram.  Registration is idempotent: asking for an existing
    name returns a handle to the same metric (re-registering a name as a
    different kind raises [Invalid_argument]). *)
module Registry : sig
  type histdata = {
    hcount : int;
    hsum : int;
    hmin : int;  (** 0 when empty *)
    hmax : int;
    hbuckets : (int * int) list;
        (** [(inclusive upper bound, count)], ascending, non-empty
            buckets only *)
  }

  type metric = Counter of int | Gauge of float | Histogram of histdata

  (** Sorted by metric name. *)
  type snapshot = (string * metric) list

  type t
  type counter
  type gauge
  type histogram

  val create : unit -> t
  val counter : t -> string -> counter
  val gauge : t -> string -> gauge
  val histogram : t -> string -> histogram

  val inc : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  val set : gauge -> float -> unit

  val observe : histogram -> int -> unit

  val snapshot : t -> snapshot

  (** Op counters as snapshot entries ([prefix ^ Metrics.name op],
      default prefix ["op_"]), for scrape paths that also expose a
      {!Metrics.t}. *)
  val metrics_counters : ?prefix:string -> Metrics.t -> snapshot

  (** The inverse of [metrics_counters] under its default prefix: every
      [op_*] counter, keyed by the rest of its name. *)
  val op_counters : snapshot -> (string * int) list

  (** Concatenate and re-sort two snapshots. *)
  val union : snapshot -> snapshot -> snapshot

  (** {!Hist.quantile} computed from snapshot data. *)
  val hist_quantile : histdata -> float -> int

  val hist_mean : histdata -> float

  (** Prometheus text exposition: [# TYPE] lines, cumulative
      [_bucket{le="..."}] series plus [_sum]/[_count] per histogram. *)
  val to_prometheus : snapshot -> string

  (** JSON exposition: [{"counters":{..},"gauges":{..},"histograms":{..}}],
      one object per section keyed by metric name; a histogram is
      [{"count","sum","min","max","buckets":[[upper,n],..]}]. *)
  val to_json : snapshot -> string
end

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val current : unit -> Collector.t option

(** [with_collector c f] makes [c] the current domain's collector for the
    duration of [f] (restored afterwards, also on exceptions). *)
val with_collector : Collector.t -> (unit -> 'a) -> 'a

(** Like {!with_collector}, but a no-op when a collector is already
    installed — used by protocol entry points so that an outer harness
    keeps capturing. *)
val with_default : Collector.t -> (unit -> 'a) -> 'a

(** Increment an op counter on the current collector (no-op when disabled
    or no collector is installed). *)
val bump : Metrics.op -> unit

val add : Metrics.op -> int -> unit

(** [span name f] runs [f] inside a named timed span on the current
    collector; records wall time and the inclusive op-count delta. *)
val span : string -> (unit -> 'a) -> 'a

module Timer : sig
  val now : unit -> float

  (** [time f] is [(f (), elapsed_seconds)]. *)
  val time : (unit -> 'a) -> 'a * float

  (** [per_call ~n f] is the mean wall time of one call to [f] over [n]
      runs. *)
  val per_call : n:int -> (unit -> 'a) -> float
end

module Report : sig
  type row = {
    rname : string;
    mutable calls : int;
    mutable wall : float;
    rops : Metrics.t;
  }

  (** Spans aggregated by name, in order of first pre-order appearance. *)
  val rows : Collector.t -> row list

  (** Render the per-protocol table plus a totals line.  With
      [~times:false] the output contains no wall-clock values and is
      byte-identical across [--domains] widths. *)
  val render : ?times:bool -> Collector.t -> string

  val print : ?times:bool -> Collector.t -> unit
end

module Chrome : sig
  (** Chrome trace-event JSON ([{"traceEvents":[...]}]); loadable in
      Perfetto / chrome://tracing.  One complete ("X") event per span with
      non-zero op counts in [args]. *)
  val to_string : Collector.t -> string

  val write : Collector.t -> file:string -> unit
end
