(** Deterministic fan-out over the process's crew of domains.

    One shared abstraction for every data-parallel batch in the system:
    relation encryption, the per-shard fan-out of the query loop and the
    deterministic work of every protocol phase (the picks, SecDedup's
    matrix, EncSort's key blinding, SecRefresh, SecJoin).

    No call spawns a domain. A fan-out borrows workers of the crew the
    calling domain belongs to ({!Service.current}: serve-s1's query
    workers), and only workers parked idle with nothing queued for them;
    a domain outside any crew borrows from a crew of
    [Domain.recommended_domain_count () - 1] helpers that the first such
    fan-out starts. The caller always works on the batch itself, never
    waits on a chunk nobody started, and runs everything inline when no
    worker is free.

    Determinism contract: items draw no randomness of their own. The
    caller draws every blind, mask and noise exponent on its own domain
    in index order ({!map_drawn} does it for one draw per item), and
    each chunk of items runs under its own [Obs] collector, merged into
    the caller's current collector in chunk order. Results, op counters
    and span trees are therefore byte-identical for every [domains]
    width and every schedule. *)

(** [run ~domains ~jobs f] evaluates [f i] for [i] in [0..jobs-1] and
    returns the results in index order. The items are split into at most
    8 contiguous chunks, claimed by the caller and at most [domains - 1]
    borrowed workers. [domains <= 1] or [jobs <= 1] runs inline, like
    [Array.init]. Once an item raises, no further item starts, and the
    first exception raised reaches the caller after every started item
    has finished. *)
val run : domains:int -> jobs:int -> (int -> 'a) -> 'a array

(** [map_drawn ~domains ~jobs ~draw f] is [f i (draw i)] for [i] in
    [0..jobs-1], in index order. Every [draw i] runs on the calling
    domain, under its collector, in index order; only [f] fans out, so
    [draw] may take randomness and [f] must not. With [domains <= 1]
    each [draw i] is made just before [f i]; wider, every draw is made
    first and the calls go through {!run}. Either way the draws are the
    same and made in the same order, so the results are byte-identical
    at every width. *)
val map_drawn :
  domains:int -> jobs:int -> draw:(int -> 'd) -> (int -> 'd -> 'a) -> 'a array
