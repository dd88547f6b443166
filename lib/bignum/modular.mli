(** Modular arithmetic over {!Nat} values.

    All functions expect operands already reduced modulo [m] unless stated
    otherwise; results are always in [[0, m)]. *)

(** [add a b ~m] is [(a + b) mod m]. *)
val add : Nat.t -> Nat.t -> m:Nat.t -> Nat.t

(** [sub a b ~m] is [(a - b) mod m]. *)
val sub : Nat.t -> Nat.t -> m:Nat.t -> Nat.t

(** [mul a b ~m] is [(a * b) mod m] — through the cached Montgomery
    context when [m] is odd (two divisionless Montgomery passes), schoolbook
    multiply-and-reduce otherwise. *)
val mul : Nat.t -> Nat.t -> m:Nat.t -> Nat.t

(** [pow b e ~m] is [b^e mod m] by square-and-multiply. *)
val pow : Nat.t -> Nat.t -> m:Nat.t -> Nat.t

(** [multi_pow [(b1, e1); ...] ~m] is [b1^e1 * b2^e2 * ... mod m] as one
    simultaneous (Shamir interleaved-window) exponentiation: all factors
    share a single squaring chain, so the product costs little more than
    the widest single [pow]. The empty list yields [1 mod m]. Counted as
    one modexp in {!Obs}. *)
val multi_pow : (Nat.t * Nat.t) list -> m:Nat.t -> Nat.t

(** [mont_ctx m] is the process-wide cached Montgomery context for [m]
    ([None] when [m] is even or too small). The cache is domain-safe;
    callers of the {!Montgomery} kernels directly ({!Fixed_base}) fetch
    the context once through here. *)
val mont_ctx : Nat.t -> Montgomery.ctx option

(** [inv a ~m] is the multiplicative inverse of [a] modulo [m]. Raises
    [Failure] if [gcd a m <> 1]. Extended Euclid. *)
val inv : Nat.t -> m:Nat.t -> Nat.t

(** [inv_many xs ~m] inverts every element of [xs] with Montgomery's
    batch trick: one extended Euclid plus [3(n-1)] modular
    multiplications, instead of [n] egcds. Raises [Failure] (like
    {!inv}) if any element is not invertible. *)
val inv_many : Nat.t list -> m:Nat.t -> Nat.t list

(** Greatest common divisor. *)
val gcd : Nat.t -> Nat.t -> Nat.t

(** Least common multiple. *)
val lcm : Nat.t -> Nat.t -> Nat.t

(** [egcd a b] returns [(g, x, y)] with [a*x + b*y = g = gcd a b]. *)
val egcd : Nat.t -> Nat.t -> Nat.t * Bigint.t * Bigint.t

(** [crt2 (r1, m1) (r2, m2)] solves [x = r1 mod m1], [x = r2 mod m2] for
    coprime moduli; the result is in [[0, m1*m2)]. *)
val crt2 : Nat.t * Nat.t -> Nat.t * Nat.t -> Nat.t
