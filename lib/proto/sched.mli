(** Cross-query round scheduler: merges concurrent queries' S2 trips.

    Instead of each query owning a transport and paying one round trip
    per protocol phase, queries {e park} their next request at the
    scheduler and block on a completion cell. A dedicated shipper domain
    coalesces everything parked into one multiplexed frame
    ([Wire.encode_mux]) and resumes each caller with its own slice.
    With [q] concurrent queries that all park within the window, [q]
    would-be trips become one — the rounds-vs-concurrency win measured
    by [bench concurrency].

    {b Ship policy.} A merged trip departs as soon as every registered
    query is parked (each query has at most one outstanding op, so
    [parked >= registered] means nobody is still computing), or when the
    oldest parked op has waited [window_us] out, whichever comes first.
    [window_us = 0] ships whatever is parked on every wake — minimum
    latency, opportunistic coalescing only.

    {b Determinism.} Ops from one query are enqueued in program order
    and answered element-wise in frame order, and S2 demultiplexes into
    per-session responder state ([S2_server.mux_state]), so each
    session's randomness stream consumes exactly the draws it would on
    the [Inproc] transport: per-query results, op counters and traces
    are byte-identical to that baseline.

    {b Failure.} A backend failure (socket closed, reply-count mismatch,
    decode error) resumes {e every} parked caller with the exception —
    typically {!Proto_error.Proto_error} — instead of killing the
    shipper, so the serving layer degrades queries one at a time. A
    backend that re-dials its connection after a failure reports the
    loss by raising {!Backend_lost}: the scheduler then retires every
    session opened on the dead connection, answering their remaining
    ops (a straggler's next round, cleanup closes) locally with a typed
    [Proto_error] rather than shipping ids the replacement connection
    has never provisioned — new queries open fresh sessions and are
    served immediately. *)

(** Answers one merged frame of ops. Each op carries the collector that
    was ambient on the submitting domain ([Obs.current ()] at park
    time): in-process backends install it around the op so S2-side
    crypto ops land in the owning query's report, as they would on the
    Inproc transport. Socket backends ignore it. *)
type backend = (Wire.mux_op * Obs.Collector.t option) list -> Wire.mux_reply list

(** Raised by a {e reconnecting} backend when the trip failed because
    its connection died and the next call will run on a fresh one (the
    payload describes the loss). S2-side mux state is per-connection,
    so the scheduler reacts by invalidating every session opened so
    far; a backend whose state survives its failures (in-process, or a
    non-reconnecting socket) must let the original exception propagate
    instead. *)
exception Backend_lost of string

type t

(** [create ~backend ()] starts the shipper domain.
    [window_us] (default 150) bounds how long the oldest parked op waits
    for stragglers; [rtt_us] adds a simulated round-trip sleep per
    merged trip (benchmarks; default 0). [registry] receives the gauges
    [parked_queries] and counters [coalesced_rounds] / [rounds_saved]
    (a private registry is used when omitted). *)
val create :
  ?window_us:int ->
  ?rtt_us:int ->
  ?registry:Obs.Registry.t ->
  backend:backend ->
  unit ->
  t

(** Allocate a fresh session id without shipping anything (for a child
    session opened by a [Mux_fork] op, which no S1 code sends any more).
    Ids are unique per scheduler, starting at 1. *)
val alloc_session : t -> int

(** Register a query: allocates a session id, ships [Mux_open] (S2
    provisions a fresh responder for it) and returns the id. The query
    counts toward the all-parked ship condition until {!close_query}. *)
val open_query : t -> int

(** Retire a session: unregisters the query (so stragglers don't wait on
    it) and ships [Mux_close]. *)
val close_query : t -> int -> unit

(** Park one op and block until the merged trip answers it. Raises
    whatever the backend raised — {!Proto_error.Proto_error} for
    protocol-level desync — and [Proto_error] if the scheduler is
    stopped. *)
val submit : t -> Wire.mux_op -> Wire.mux_reply

(** Ship any residue and join the shipper domain. Subsequent submissions
    raise {!Proto_error.Proto_error}. *)
val stop : t -> unit

(** [socket_backend keys fd] ships merged frames over [fd] (one
    [write_frame]/[read_frame] exchange per trip — the whole point).
    Raises {!Proto_error.Proto_error} on EOF or a reply-count mismatch;
    [Invalid_argument] on malformed reply bytes. The shipper domain is
    the only thread touching [fd]. *)
val socket_backend : Wire.keys -> Unix.file_descr -> backend
