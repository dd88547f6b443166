(** Transport between the S1 driver code and the S2 responder.

    Two implementations of one rpc interface:

    - [Inproc]: S2 runs in-process, and every request and response is
      encoded through {!Wire} and decoded on the other side, so S2 sees
      only what the wire carries and the channel is charged the frames'
      real lengths.
    - [Mux]: requests park at a shared round scheduler ({!Sched}) which
      merges every concurrent query's next op into one multiplexed S2
      trip — in-process, or over a connection to an S2 daemon
      ([Sched.socket_backend] on a {!spawn_daemon} / {!connect_tcp}
      fd). This is the only way to reach an out-of-process S2. The
      per-query channel is charged {!Wire}'s closed-form frame sizes
      (pinned to the encoded lengths by the Wire tests), so per-query
      accounting equals [Inproc]'s while the shared trip count drops.

    A seeded query produces byte-identical results, traces and operation
    counters on both (a daemon counts its S2 ops on its side; fetch them
    with {!stats}). *)

type t

(** [rtt_us] injects a simulated per-round latency (microseconds of
    [Unix.sleepf] after each round trip) so round-count differences show
    up as wall-clock time on one machine (bench [--rtt]). *)
val inproc : ?rtt_us:int -> Wire.keys -> S2_server.t -> t

(** Park this query's rpcs at a shared {!Sched} under the given mux
    session id (obtained from [Sched.open_query]). *)
val mux : Wire.keys -> Sched.t -> session:int -> t

val channel : t -> Channel.t
val keys : t -> Wire.keys

val mode_name : t -> string

(** One request/response round trip. Both frames are charged to the
    channel at their encoded length under the request's protocol label.
    On [Inproc], a request the decoder refuses raises [Invalid_argument]
    before S2 handles it. *)
val rpc : t -> label:string -> Wire.request -> Wire.response

(** Direct S2 state, for [Inproc] and tests; raises
    [Invalid_argument] when S2 is behind a scheduler. *)
val trace : t -> Trace.t

val secret_key : t -> Crypto.Paillier.secret

(** Send one [Stats_req] on a connected fd and return the registry
    snapshot from its [Stats_resp], skipping (by kind byte, without
    decoding) a [Server_hello] frame serve-s1 greets connections with.
    On a provisioned S2 connection the snapshot also carries the
    connection's S2 op counters as [op_*] series. *)
val stats : Unix.file_descr -> Obs.Registry.snapshot

(** Key-less live-telemetry scrape: connect to a listening [serve-s1] or
    [serve-s2] daemon and ask {!stats} once. Needs no key material, so
    any monitoring client can call it. *)
val scrape_stats : Unix.sockaddr -> Obs.Registry.snapshot

(** Fork a child process serving S2 over a socketpair; returns the
    connected fd (Hello done) and the child pid. The child exits once
    the fd is closed; reap it with [Unix.waitpid]. OCaml 5 refuses to
    fork once the process has spawned any domain (a {!Sched}'s shipper
    is one), so call this first. *)
val spawn_daemon : Wire.hello -> Unix.file_descr * int

(** Connect to a standalone [topk_cli serve-s2] daemon over TCP. *)
val connect_tcp : Unix.sockaddr -> Wire.hello -> Unix.file_descr

(** [accept ~errors sock] is [Some (Unix.accept sock)], or [None] when the
    accept failed for want of descriptors or kernel memory (EMFILE,
    ENFILE, ENOBUFS, ENOMEM): the failure is counted in [errors] and the
    call sleeps briefly, since the pending connection keeps [sock]
    readable. The daemons' accept loops then keep accepting. Other
    errors are raised. *)
val accept :
  errors:Obs.Registry.counter -> Unix.file_descr -> (Unix.file_descr * Unix.sockaddr) option
