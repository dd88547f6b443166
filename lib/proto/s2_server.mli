(** The S2 party: key holder and responder.

    S2 owns the Paillier/DJ secret keys, its own randomness stream and the
    {!Trace} of everything it decrypts. It never sees S1 state — its whole
    view is the stream of {!Wire.request} frames dispatched to {!handle},
    each carrying the protocol label under which revealed facts are traced.
    The same handler code serves every transport, so results, traces
    and operation counts are byte-identical whether S2 runs in-process or
    as a separate daemon. *)

open Crypto

type t

val create :
  pub:Paillier.public ->
  djpub:Damgard_jurik.public ->
  sk:Paillier.secret ->
  djsk:Damgard_jurik.secret ->
  own_pub:Paillier.public ->
  rng:Rng.t ->
  t

(** Rebuild S2 state from the client's provisioning parameters, replaying
    the seeded generator in the exact order [Ctx.provision] consumes it
    (keygen, then the "ctx"/"s1"/"s2" forks). Demo/test provisioning: real
    deployments ship keys out-of-band. *)
val of_hello : Wire.hello -> t

(** Answer one request; the label names the protocol for trace purposes. *)
val handle : t -> label:string -> Wire.request -> Wire.response

(** Fork a child session for one sub-context (fresh rng fork + empty
    trace, shared keys); [join] folds the child's trace back in call
    order. Mirrors [Ctx.fork_subs]' S1-side forks one-to-one. *)
val fork : t -> label:string -> t

val join : t -> into:t -> unit
val trace : t -> Trace.t
val secret_key : t -> Paillier.secret

(** {2 Multiplexed sessions}

    State behind one coalescing scheduler ({!Sched}): sessions opened by
    [Mux_open] ops, keyed by their correlation tag. [make ~session]
    provisions a fresh responder exactly as the query's [Inproc]
    context would ([of_hello]'s replay of [Ctx.provision]), so every
    session's randomness stream matches the in-process path byte for
    byte. *)
type mux_state

val mux_state : make:(session:int -> t) -> mux_state

(** Answer one merged frame of ops, element-wise in frame order. Each
    op's optional collector is installed around it so S2-side crypto
    counts in the owning query's report (in-process backends). Unknown
    or duplicate sessions raise [Invalid_argument], matching the codec's
    treatment of malformed frames. *)
val handle_mux_ops :
  mux_state -> (Wire.mux_op * Obs.Collector.t option) list -> Wire.mux_reply list

(** Serve one connection: expects a [Hello] control frame, then answers
    mux frames ([Sched.socket_backend]) and [Stats_req] frames until
    EOF. Mux sessions demultiplex into per-session responders, each
    provisioned by an [of_hello] replay on its [Mux_open]. The first
    frame is capped at 64 KiB before it is read, so an unauthenticated
    peer cannot make the daemon allocate more. [on_ready] (if given) is
    called once after provisioning with the setup wall time in seconds —
    key replay plus Montgomery-context and fixed-base-comb warmup — so a
    daemon can log what its first client paid before the first request
    was served.

    [registry] (if given) makes the connection scrapeable: a [Stats_req]
    control frame — mid-session, or as the very first frame from a
    key-less monitoring client — answers with [Stats_resp] carrying the
    registry snapshot (mid-session scrapes also fold in the connection's
    op counters as [op_*] counter series, [Mux_open] replays included). *)
val serve_fd :
  ?on_ready:(float -> unit) -> ?registry:Obs.Registry.t -> Unix.file_descr -> unit
