(** Montgomery-domain modular arithmetic for odd moduli.

    Exponentiation is the dominant cost of the whole system (every
    Paillier/DJ operation reduces to modexps over 2-3x key-width moduli),
    so [Modular.pow] routes through this module: product-scanning
    Montgomery multiplication (no per-step division) with 4-bit fixed
    windows, and combs for a base raised to many exponents.

    Each function converts into the Montgomery domain once, chains every
    intermediate product on one per-call workspace, and converts out
    once. Results are fresh, normalised values that share nothing with
    the workspace, so any number of domains may call these at once. *)

type ctx

(** [create m] precomputes the context for an odd modulus [m > 1];
    [None] if [m] is even or too small. *)
val create : Nat.t -> ctx option

(** [mul ctx a b] is [a * b mod m]. Operands already in [[0, m)] skip
    reduction. *)
val mul : ctx -> Nat.t -> Nat.t -> Nat.t

(** [pow ctx b e] is [b^e mod m] (4-bit windows). *)
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** [multi_pow ctx [(b1, e1); ...]] is [b1^e1 * b2^e2 * ... mod m] as
    one interleaved-window simultaneous exponentiation: all bases share
    a single run of squarings (the dominant cost), so p factors cost
    little more than the widest single exponent. Empty input (or
    all-zero exponents) yields 1. *)
val multi_pow : ctx -> (Nat.t * Nat.t) list -> Nat.t

(** [multi_pow_rows ctx bases rows] is, per row [r], the product of
    [bases.(i)^(r.(i))] over [i]: {!multi_pow} per row, but each base's
    window table is built once and read by every row. Raises
    [Invalid_argument] on a row of another width than [bases]. *)
val multi_pow_rows : ctx -> Nat.t array -> Nat.t array array -> Nat.t array

(** A fixed-base comb: for one base and a digit width [w], the
    Montgomery forms of [base^(d * 2^(w * i))] for every digit [d] in
    [1 .. 2^w - 1] of every row [i], stored as the half-limb splits the
    multiplication reads. Immutable once built. *)
type comb

(** [comb ctx base ~digit_bits:w ~rows] builds the comb for exponents
    below [2^(w * rows)], [w] in [1..8]. Cost: [2^w - 1] Montgomery
    multiplications per row. *)
val comb : ctx -> Nat.t -> digit_bits:int -> rows:int -> comb

(** [comb_pow ctx c e] is [base^e mod m]: one multiplication per nonzero
    [w]-bit digit of [e], a digit that straddles two limbs included.
    [e] must be below [2^(w * rows)]; higher digits are ignored. *)
val comb_pow : ctx -> comb -> Nat.t -> Nat.t

(** [pow_each ctx b es] is [b^e mod m] for every [e] of [es], in order,
    from one comb of 3-bit digits built for this call and then dropped:
    for the ten 128-bit exponents of a Replace rewrite, about 40% of
    the multiplications of separate {!pow}s. *)
val pow_each : ctx -> Nat.t -> Nat.t list -> Nat.t list
