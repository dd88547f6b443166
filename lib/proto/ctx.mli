(** Execution context for the two-cloud protocols.

    The context is S1's world: its public keys, randomness, blinding
    policy and personal key pair — plus a {!Transport} to S2. S1 code
    never touches S2 state; every decryption crosses the transport as a
    {!Wire} request and everything S2 learns is appended to its trace on
    the other side. Depending on the transport mode the S2 half runs
    in-process (Inproc/Loopback) or behind a round scheduler (Mux), whose
    backend may be a separate daemon; the protocols are agnostic (see
    DESIGN.md section 4c). *)

open Crypto

type s1 = {
  pub : Paillier.public;
  djpub : Damgard_jurik.public;
  rng : Rng.t;
  blind_bits : int option;
      (** Width of statistical-blinding exponents; [None] = full [Z_n]
          exponents exactly as in the paper, [Some b] = faster [b]-bit
          blinding for benchmarks. *)
  own_pub : Paillier.public;
      (** S1's personal key pair (the [(pk', sk')] of Algorithm 7), under
          which S1 encrypts its blinding randomness so S2 can update it
          homomorphically without reading it. Its modulus is wider than
          the main one so blinding sums survive unreduced. *)
  own_sk : Paillier.secret;
  djnoise : Noise_pool.t;
      (** Precomputed DJ re-randomization noise ([r^{n^2} mod n^3]); its
          root generator is forked off [rng] at context construction, and
          {!parallel} tasks fork their own — same determinism discipline
          as the generators themselves. *)
}

type t = {
  s1 : s1;
  transport : Transport.t;
  domains : int;
      (** Width of the {!Core.Pool} fan-outs made through {!map} and
          {!parallel}. *)
  obs : Obs.Collector.t;
      (** Default observability sink for this context: protocol entry
          points install it as the current collector unless an outer
          harness already installed one. Counters, bytes/rounds and the
          span tree collected here are byte-identical for every [domains]
          width; only wall times differ. *)
  batching : bool;
      (** When false, {!rpc_batch} degrades to one {!rpc} per element —
          the unbatched execution the equivalence tests compare against.
          Results, traces and crypto op counters are identical either
          way; only framing (bytes/messages/rounds) differs. *)
}

(** Transport selection. When omitted, the [TRANSPORT] environment
    variable picks between [inproc] (default) and [loopback] — this is
    how CI reruns the whole suite through the codec. [Mux] parks this
    query's rounds at a shared {!Sched} under a session id from
    [Sched.open_query], so concurrent queries' trips coalesce; results,
    traces and per-query op counters stay byte-identical to the
    [Inproc] baseline. A scheduler over [Sched.socket_backend] is how a
    context reaches an S2 daemon. *)
type mode =
  | Inproc
  | Loopback
  | Mux of Sched.t * int

(** [create rng ~bits] generates a fresh key pair of modulus width [bits]
    and builds both party halves. [domains] (default 1) sets the
    parallelism of {!parallel}; it never affects results or traces. *)
val create :
  ?blind_bits:int -> ?domains:int -> ?mode:mode -> ?rtt_us:int -> Rng.t -> bits:int -> t

(** Rebuild a context around existing keys (e.g. the data owner's).
    [rtt_us] is the simulated per-round latency of the Loopback transport
    (ignored by the others). *)
val of_keys :
  ?blind_bits:int ->
  ?domains:int ->
  ?mode:mode ->
  ?rtt_us:int ->
  Rng.t ->
  Paillier.public ->
  Paillier.secret ->
  t

(** Canonical seeded provisioning: [(pub, sk, ctx_rng, data_rng)]. Pass
    [ctx_rng] to {!of_keys} and use [data_rng] for dataset encryption. An
    S2 daemon given the same [Wire.hello] replays the first steps
    verbatim ([S2_server.of_hello]), so both processes derive identical
    keys and aligned randomness streams. *)
val provision :
  seed:string ->
  key_bits:int ->
  ?rand_bits:int ->
  unit ->
  Paillier.public * Paillier.secret * Rng.t * Rng.t

val with_domains : t -> int -> t

(** Toggle batching (see the [batching] field). *)
val with_batching : t -> bool -> t

(** One request/response round trip to S2 under [label]. *)
val rpc : t -> label:string -> Wire.request -> Wire.response

(** [rpc_batch t ~label reqs] ships all of [reqs] in one {!Wire.Batch}
    frame (one round) and returns the element-wise responses in request
    order. An empty list produces no traffic at all; a singleton
    delegates to {!rpc}, so singleton fan-outs keep their historical
    framing. S2 handles batch elements in order — exactly the
    decryptions, trace events and randomness draws of singleton
    execution. A response of the wrong arity or kind raises
    {!Proto_error.Proto_error} (typed desync, mapped to a
    [Server_error] by the serving front-end). *)
val rpc_batch : t -> label:string -> Wire.request list -> Wire.response list

(** [rpc_pipeline t ~label ~prepare n] evaluates [prepare i] for [i] in
    [0..n-1] (strictly in order, on the calling domain, under its
    collector) and ships the requests in chunks of [chunk] (default 16)
    via {!rpc_batch}. When [t.domains > 1] and the transport allows it,
    chunk [i]'s round trip runs on a borrowed crew worker
    ({!Core.Pool.overlap}) while the caller prepares chunk [i+1].
    Responses come back in request order. Results, traces and op
    counters are identical to the sequential path. *)
val rpc_pipeline :
  t -> label:string -> ?chunk:int -> prepare:(int -> Wire.request) -> int -> Wire.response list

(** The bandwidth-accounting channel of the underlying transport. *)
val channel : t -> Channel.t

(** Direct S2 state for local transports and tests; raises
    [Invalid_argument] when S2 is remote. *)
val sk : t -> Paillier.secret

val trace : t -> Trace.t

(** S2's trace as an event list (local transports only, like {!trace}). *)
val trace_events : t -> Trace.event list

val transport_name : t -> string

(** [map t ~jobs f] is [Core.Pool.run ~domains:t.domains ~jobs f]: the
    fan-out of deterministic S1 work. [f] must draw no randomness — the
    caller draws every blind and noise exponent in sequential order
    first — so results are byte-identical at every width. Each chunk of
    items runs under its own collector, merged into the caller's current
    collector in chunk order. *)
val map : t -> jobs:int -> (int -> 'a) -> 'a array

(** [parallel t ~jobs f] evaluates [f s1 i] for [i] in [0..jobs-1]
    through {!map} and returns results in index order. Tasks are pure S1
    work: each [s1] shares the keys of [t] but carries its own generator
    and DJ noise pool, forked from [s1.rng] by index before any task
    starts, so a task may draw randomness. No task gets a transport, so
    none opens an S2 session, and the fan-out runs at full width on
    every transport (a mux query pays no scheduler trip for a fork).
    Results and accounting are byte-identical across any [domains]
    setting. *)
val parallel : t -> jobs:int -> (s1 -> int -> 'a) -> 'a array

(** Serialized sizes used for channel accounting. *)
val paillier_ct_bytes : t -> int

val dj_ct_bytes : t -> int

(** The sentinel "never in top-k" worst score [Z = n - 1] (= -1 in the
    signed encoding), as in SecDedup. *)
val sentinel_z : s1 -> Bignum.Nat.t
