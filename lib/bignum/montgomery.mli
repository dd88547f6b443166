(** Montgomery-domain modular arithmetic for odd moduli.

    Exponentiation is the dominant cost of the whole system (every
    Paillier/DJ operation reduces to modexps over 2-3x key-width moduli),
    so [Modular.pow] routes through this module: product-scanning
    Montgomery multiplication (no per-step division) with 4-bit fixed
    windows.

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

(** A fixed-base comb: for one base, the Montgomery forms of
    [base^(d * 16^i)] for every digit [d] in 1..15 of every row [i],
    stored as the half-limb splits the multiplication reads. Immutable
    once built. *)
type comb

(** [comb ctx base ~rows] builds the comb for exponents below
    [2^(4 * rows)]. Cost: about [15 * rows] Montgomery multiplications. *)
val comb : ctx -> Nat.t -> rows:int -> comb

(** [comb_pow ctx c e] is [base^e mod m]: one multiplication per nonzero
    4-bit digit of [e]. [e] must be below [2^(4 * rows)]; higher digits
    are ignored. *)
val comb_pow : ctx -> comb -> Nat.t -> Nat.t
