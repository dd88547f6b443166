(** Arbitrary-precision natural numbers.

    Values are immutable little-endian limb vectors in base [2^52]. Limb
    products are formed from 26-bit half-limbs so that every intermediate
    fits OCaml's 63-bit native [int], which lets every inner loop run on
    unboxed integers (see nat.ml for the bounds; {!Nat_ref} retains the
    old base-2^26 code as a differential-test oracle). All results are
    normalized (no most-significant zero limbs); [zero] is the empty
    vector. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument] on
    negative input. *)
val of_int : int -> t

(** [to_int x] converts back to [int]; raises [Failure] if [x >= 2^62]. *)
val to_int : t -> int

val to_int_opt : t -> int option
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val equal : t -> t -> bool

(** Total order; [compare a b] is negative, zero or positive as [a < b],
    [a = b], [a > b]. *)
val compare : t -> t -> int

val add : t -> t -> t

(** [sub a b] computes [a - b]. Raises [Invalid_argument] if [b > a]. *)
val sub : t -> t -> t

val succ : t -> t
val pred : t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val add_int : t -> int -> t

(** [divmod a b] returns [(q, r)] with [a = q*b + r] and [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. Knuth Algorithm D. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [divmod_int a b] is division by a small positive divisor [b < 2^26]
    (a half-limb, so each division step fits a native int). *)
val divmod_int : t -> int -> t * int

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** Number of significant bits; [bit_length zero = 0]. *)
val bit_length : t -> int

(** [nth_bit x i] is bit [i] (little-endian); out-of-range bits are [false]. *)
val nth_bit : t -> int -> bool

(** [pow b e] is [b^e] for a small exponent [e >= 0]. *)
val pow : t -> int -> t

(** Big-endian byte serialization. [of_bytes (to_bytes x) = x];
    [to_bytes zero = ""]. *)
val to_bytes : t -> string

(** Bytes of [to_bytes x]: [(bit_length x + 7) / 8]. *)
val byte_length : t -> int

(** [put_fixed b ~width x] appends [x] big-endian to [b] as exactly
    [width] bytes, zero-padded in front: a fixed-width field written
    straight into an encoder's buffer. Raises [Invalid_argument] if
    [byte_length x > width]. *)
val put_fixed : Buffer.t -> width:int -> t -> unit

val of_bytes : string -> t

(** Decimal conversion. [of_string] accepts optional leading [+] and
    underscores; raises [Invalid_argument] on malformed input. *)
val to_string : t -> string

val of_string : string -> t
val to_hex : t -> string
val of_hex : string -> t
val pp : Format.formatter -> t -> unit

(** Number of limbs (for cost accounting and tests). *)
val limb_count : t -> int

(** Base-2^52 limbs, least significant first (for white-box tests). *)
val limbs : t -> int array

(** [limb x i] is base-2^52 limb [i] of [x] (least significant first),
    and [0] past the top: the Montgomery kernels read operands and
    exponents through it without copying them. *)
val limb : t -> int -> int

(** [of_limbs a] builds a value from base-2^52 limbs, least significant
    first. Trusts every element to be in [[0, 2^52)]. The result never
    shares [a]. *)
val of_limbs : int array -> t

(** [of_limb_prefix a len] is [of_limbs] of the first [len] limbs of [a],
    built with a single copy: how a Montgomery kernel copies its result
    out of its workspace (both sides share the limb format). *)
val of_limb_prefix : int array -> int -> t
