(** Keyed pseudo-random permutation over a small index domain [[0, n)].

    This is the permutation [P_K] the data owner applies to the sorted
    attribute lists (Algorithm 2, step 9) and the client re-derives in
    [Token]. It is realised as a Fisher–Yates shuffle driven by an
    HMAC-DRBG keyed with [K] — a standard small-domain PRP construction. *)

type t

val create : key:string -> domain:int -> t

(** Forward permutation [P_K(i)]. *)
val apply : t -> int -> int

(** Inverse permutation. *)
val invert : t -> int -> int
