(** Fixed-base windowed exponentiation.

    Precomputes a comb table for one base modulo one odd modulus so that
    subsequent exponentiations cost roughly one Montgomery multiplication
    per nonzero {!digit_bits}-bit digit of the exponent. Built for Paillier/DJ noise
    generation, where the fixed n-th residue [h] is raised to a fresh
    short exponent on every encryption and re-randomization. *)

type t

(** The comb's digit width, 6: a comb holds [ceil(max_bits / 6)] rows of
    63 entries, and a [pow] costs at most one multiplication per row. *)
val digit_bits : int

(** [create ctx ~base ~max_bits] precomputes the comb for exponents up to
    [max_bits] bits wide. Cost: [63 * ceil(max_bits / 6)] Montgomery
    multiplications, paid once per (base, modulus) pair. *)
val create : Montgomery.ctx -> base:Nat.t -> max_bits:int -> t

(** [cached ~base ~m ~max_bits] is the process-wide comb for [base]
    modulo [m], built on first use (and rebuilt if a wider [max_bits] is
    requested later). [None] when [m] has no Montgomery context (even
    modulus). Domain-safe; combs are immutable once built.

    The cache holds at most {!set_capacity} combs (default 32) and
    evicts the least-recently used one on overflow, so a long-lived
    server cannot accumulate a comb per client key. *)
val cached : base:Nat.t -> m:Nat.t -> max_bits:int -> t option

(** [cached_power ~base ~exp ~m ~max_bits] is {!cached} for
    [base^exp mod m], cached under [(base, exp, m)]: the power is
    derived once, when the comb is built, so a caller never holds or
    recomputes it; like the build, the derivation bumps no op counter.
    A key's negated-noise comb is [h^(n-1)] mod [n^2]. *)
val cached_power : base:Nat.t -> exp:Nat.t -> m:Nat.t -> max_bits:int -> t option

(** Bound the comb cache to [n] entries (default 32), evicting
    least-recently used combs immediately if over. Raises
    [Invalid_argument] when [n < 1]. *)
val set_capacity : int -> unit

(** Number of combs currently cached. *)
val cached_count : unit -> int

(** Drop every cached comb and restore the default capacity. Tests and
    long-running servers use this to release table memory; subsequent
    {!cached} calls rebuild on demand. *)
val reset : unit -> unit

(** [pow t e] is [base^e mod m]. Raises [Invalid_argument] if [e] is
    wider than the [max_bits] the comb was built for. *)
val pow : t -> Nat.t -> Nat.t
