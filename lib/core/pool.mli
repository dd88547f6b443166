(** Deterministic work-stealing pool over OCaml 5 domains.

    One shared abstraction for every data-parallel batch in the system:
    relation encryption, the per-depth row fan-out of the query loop, the
    pairwise phases of SecDedup/EncSort, and the tuple fan-out of SecJoin.

    Determinism contract: randomness is forked from the caller's generator
    {e by index, before} any domain starts, so results are a pure function
    of (seed, jobs) — independent of [domains] and of scheduling. A run
    with [domains:1] and [domains:8] produces byte-identical output. *)

open Crypto

(** [run ~domains ~jobs f] evaluates [f i] for [i] in [0..jobs-1] across
    at most [domains] domains (the calling domain counts as one) and
    returns the results in index order. [domains <= 1] or [jobs <= 1]
    runs inline. Tasks are claimed from an atomic counter, so per-task
    cost may vary freely. *)
val run : domains:int -> jobs:int -> (int -> 'a) -> 'a array

(** [fork_rngs rng ~jobs] forks one generator per job index from [rng],
    in index order (labels ["par:0"], ["par:1"], ...). Each fork is an
    independent DRBG, safe to use from its own domain. *)
val fork_rngs : Rng.t -> jobs:int -> Rng.t array

(** [map_rng rng ~domains ~jobs f] is [run] with a pre-forked generator
    per task: [f rngs.(i) i]. *)
val map_rng : Rng.t -> domains:int -> jobs:int -> (Rng.t -> int -> 'a) -> 'a array

(** One task on a fresh helper domain, joined with {!await}. OCaml 5
    refuses [Unix.fork] once the process has spawned any domain, so fork
    daemons ([Transport.spawn_daemon]) before the first task. *)
type 'a task

val background : (unit -> 'a) -> 'a task
val await : 'a task -> 'a
