(** Signed arbitrary-precision integers built on {!Nat}. *)

type t

val zero : t
val one : t
val of_nat : Nat.t -> t
val of_int : int -> t

(** Absolute value as a natural. *)
val to_nat : t -> Nat.t

(** Sign: [-1], [0] or [1]. *)
val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Euclidean division: [div_euclid a b] and [rem_euclid a b] satisfy
    [a = q*b + r] with [0 <= r < |b|]. *)
val div_euclid : t -> t -> t

val rem_euclid : t -> t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

(** [mod_nat a n] maps [a] into [[0, n)]; the result is a natural. *)
val mod_nat : t -> Nat.t -> Nat.t

val to_string : t -> string
val of_string : string -> t
val pp : Format.formatter -> t -> unit
