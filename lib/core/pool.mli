(** Deterministic fan-out over the process's crew of domains.

    One shared abstraction for every data-parallel batch in the system:
    relation encryption, the per-shard fan-out of the query loop,
    [Ctx.parallel]'s tasks (SecDedup, EncSort) and the deterministic
    exponentiations of the picks (SecJoin's among them) and SecRefresh.

    No call spawns a domain. A fan-out borrows workers of the crew the
    calling domain belongs to ({!Service.current}: serve-s1's query
    workers), and only workers parked idle with nothing queued for them;
    a domain outside any crew borrows from a crew of
    [Domain.recommended_domain_count () - 1] helpers that the first such
    fan-out starts. The caller always works on the batch itself, never
    waits on a chunk nobody started, and runs everything inline when no
    worker is free.

    Determinism contract: items draw no randomness of their own (callers
    draw every blind and noise exponent in sequential order first, or
    fork generators by index with {!fork_rngs}), and each chunk of items
    runs under its own [Obs] collector, merged into the caller's current
    collector in chunk order. Results, op counters and span trees are
    therefore byte-identical for every [domains] width and every
    schedule. *)

open Crypto

(** [run ~domains ~jobs f] evaluates [f i] for [i] in [0..jobs-1] and
    returns the results in index order. The items are split into at most
    8 contiguous chunks, claimed by the caller and at most [domains - 1]
    borrowed workers. [domains <= 1] or [jobs <= 1] runs inline, like
    [Array.init]. Once an item raises, no further item starts, and the
    first exception raised reaches the caller after every started item
    has finished. *)
val run : domains:int -> jobs:int -> (int -> 'a) -> 'a array

(** [overlap ~domains offload local] runs [local ()] on the calling
    domain, under its current collector, while a borrowed worker runs
    [offload ()] under a private collector merged afterwards. With
    [domains <= 1] or no parked worker the caller runs [local] and then
    [offload]. Returns [(offload (), local ())]; an exception from
    either is raised after both have finished. *)
val overlap : domains:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** [fork_rngs rng ~jobs] forks one generator per job index from [rng],
    in index order (labels ["par:0"], ["par:1"], ...). Each fork is an
    independent DRBG, safe to use from its own domain. *)
val fork_rngs : Rng.t -> jobs:int -> Rng.t array

(** [map_rng rng ~domains ~jobs f] is [run] with a pre-forked generator
    per task: [f rngs.(i) i]. *)
val map_rng : Rng.t -> domains:int -> jobs:int -> (Rng.t -> int -> 'a) -> 'a array
