(** A crew: a fixed set of worker domains that live as long as the
    process serves.

    A crew runs two kinds of work. {e Jobs} are whole requests (the
    serving daemon's queries) behind bounded admission: {!submit} never
    blocks, and a full queue answers [`Busy] so overload stays a typed,
    immediate signal. {e Help} is a {!Pool.run} fan-out lent to workers
    that are parked with nothing queued for them ({!lend}). A worker
    always takes a queued job before help, and a helping worker checks
    {!job_waiting} between chunks, so help never makes {!submit} answer
    [`Busy] and delays a queued job by at most one chunk.

    serve-s1's crew is its [--workers] service; a fan-out made outside
    any crew borrows from a crew that {!Pool} starts itself. *)

type t

(** [create ~domains ~queue_depth] spawns [domains] worker domains.
    [queue_depth] bounds jobs waiting beyond the ones workers can start
    immediately ([queue_depth = 0]: a job is accepted only when a worker
    is free). If a spawn fails, the workers already started are retired
    and the exception is re-raised. *)
val create : domains:int -> queue_depth:int -> t

(** Non-blocking admission. Accepted jobs run in submission order on the
    next free worker; a job's exceptions are swallowed (deliver results
    through the closure). Returns [`Busy] when the queue is full or the
    service is draining. *)
val submit : t -> (unit -> unit) -> [ `Accepted | `Busy ]

(** Stop admitting, run everything already accepted to completion, and
    join the worker domains. Callable once; subsequent submits return
    [`Busy]. *)
val drain : t -> unit

(** The crew whose worker runs the calling domain, if any. *)
val current : unit -> t option

(** [lend t ~max help] posts [help] to at most [max] workers that are
    parked with no queued job or earlier help to wake them for; each
    runs [help ()] once. Posts nothing when no worker is free. [help]
    should return as soon as {!job_waiting} holds. *)
val lend : t -> max:int -> (unit -> unit) -> unit

(** Whether an admitted job waits for a worker. *)
val job_waiting : t -> bool
