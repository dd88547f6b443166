(** Random number generation over {!Bignum.Nat} values, backed by
    {!Drbg}. All randomness in the library flows through a value of this
    type so that experiments are reproducible under a fixed seed. *)

type t

(** Deterministic generator from a seed string. *)
val create : seed:string -> t

(** Generator seeded from [/dev/urandom] (falls back to PID/time entropy if
    unavailable). *)
val system : unit -> t

val bytes : t -> int -> string

(** Uniform in [[0, 2^bits)]. *)
val nat_bits : t -> int -> Bignum.Nat.t

(** Uniform in [[0, bound)] by rejection sampling; [bound > 0]. *)
val nat_below : t -> Bignum.Nat.t -> Bignum.Nat.t

(** Uniform in [[1, n)] with [gcd(r, n) = 1] — a unit of Z_n. Used for
    Paillier noise and multiplicative blinding. *)
val unit_mod : t -> Bignum.Nat.t -> Bignum.Nat.t

(** Uniform int in [[0, bound)]; [bound > 0]. *)
val int_below : t -> int -> int

val bool : t -> bool

(** Fisher–Yates shuffle; returns the permutation applied, as an array
    mapping new index -> old index. *)
val shuffle : t -> 'a array -> int array

(** Fresh child generator whose stream is independent of later draws from
    the parent (forked via a domain-separation label). *)
val fork : t -> label:string -> t

(** An independent generator in the same state: it delivers the bytes
    [t] would deliver next, and draws on either leave the other's
    stream unchanged. Reads [t] without changing it, so domains may copy
    one generator that nothing draws from without a lock. *)
val copy : t -> t
