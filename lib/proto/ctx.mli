(** Execution context for the two-cloud protocols.

    The context is S1's world: its public keys, randomness, blinding
    policy and personal key pair — plus a {!Transport} to S2. S1 code
    never touches S2 state; every decryption crosses the transport as a
    {!Wire} request and everything S2 learns is appended to its trace on
    the other side. Depending on the transport mode the S2 half runs
    in-process behind the {!Wire} codec (Inproc) or behind a round
    scheduler (Mux), whose backend may be a separate daemon; the
    protocols are agnostic (see DESIGN.md section 4c). *)

open Crypto

type s1 = {
  pub : Paillier.public;
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
}

type t = {
  s1 : s1;
  transport : Transport.t;
  domains : int;
      (** Width of the {!Core.Pool} fan-outs made through {!map}. *)
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

(** Transport selection (default [Inproc]). [Inproc] runs S2 in this
    process and sends every request and response through the {!Wire}
    codec. [Mux] parks this query's rounds at a shared {!Sched} under a
    session id from [Sched.open_query], so concurrent queries' trips
    coalesce; results, traces and per-query op counters stay
    byte-identical to [Inproc]'s. A scheduler over
    [Sched.socket_backend] is how a context reaches an S2 daemon. *)
type mode =
  | Inproc
  | Mux of Sched.t * int

(** What a query context starts from and never changes: the key pairs,
    the framing keys and the state of the "s1"
    and "s2" generators. The per-key tables are warmed when it is
    derived. A server derives it once and starts every query from it. *)
type derived

(** [derive rng pub sk] derives S1's and S2's states from [rng] (two
    forks, "s1" and "s2") and S1's personal key pair from the "s1"
    generator. *)
val derive : Rng.t -> Paillier.public -> Paillier.secret -> derived

(** The framing keys of every context started from it. *)
val keys : derived -> Wire.keys

(** A context that starts from copies of the derived generators: its
    results, traces and op counters are those of [of_keys] on the
    generator the value was derived from. The derived value is only
    read, so domains may start contexts from one value at once.
    [domains] (default 1) sets the width of {!map}; it never affects
    results or traces. [rtt_us] is a simulated per-round latency
    (Inproc; ignored by Mux). *)
val of_derived :
  ?blind_bits:int -> ?domains:int -> ?mode:mode -> ?rtt_us:int -> derived -> t

(** [of_keys rng pub sk] is [of_derived (derive rng pub sk)]: a context
    around existing keys (e.g. the data owner's). *)
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
    [ctx_rng] to {!derive} (or {!of_keys}) and use [data_rng] for dataset
    encryption. An S2 daemon given the same [Wire.hello] replays these
    steps and {!derive} verbatim ([S2_server.provision]), so both
    processes derive identical keys and aligned randomness streams. *)
val provision :
  seed:string ->
  key_bits:int ->
  ?rand_bits:int ->
  unit ->
  Paillier.public * Paillier.secret * Rng.t * Rng.t

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

(** The bandwidth-accounting channel of the underlying transport. *)
val channel : t -> Channel.t

(** Direct S2 state for [Inproc] and tests; raises
    [Invalid_argument] when S2 is remote. *)
val sk : t -> Paillier.secret

val trace : t -> Trace.t

(** S2's trace as an event list ([Inproc] only, like {!trace}). *)
val trace_events : t -> Trace.event list

val transport_name : t -> string

(** [map t ~jobs f] is [Core.Pool.run ~domains:t.domains ~jobs f]: the
    fan-out of deterministic S1 work. [f] must draw no randomness — the
    caller draws every blind and noise exponent in sequential order
    first — so results are byte-identical at every width. Each chunk of
    items runs under its own collector, merged into the caller's current
    collector in chunk order. *)
val map : t -> jobs:int -> (int -> 'a) -> 'a array

(** The sentinel "never in top-k" worst score [Z = n - 1] (= -1 in the
    signed encoding), as in SecDedup. *)
val sentinel_z : s1 -> Bignum.Nat.t
