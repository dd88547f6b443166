(** A seeded stream of re-randomization noise values.

    A re-randomization multiplies a ciphertext by a fresh encryption of
    zero — one modular exponentiation ([Paillier.noise]). The pool draws
    those noise values from its own generator, and the caller applies
    each with a single modular multiplication
    ({!Paillier.rerandomize_with}).

    Deterministic under a seeded generator: values are drawn
    sequentially from the pool's root generator, in [take] order.
    Generation runs under a throwaway Obs collector; each {!take} bumps
    [Obs.Metrics.Rerand_pool] instead. *)

type t

(** [create rng ~label gen] — forks the pool's root generator off [rng]
    (one draw, at creation) and produces values with [gen]. *)
val create : Rng.t -> label:string -> (Rng.t -> Bignum.Nat.t) -> t

(** Next noise value, in strict index order. Safe to call from several
    domains (a lock serialises the draws). *)
val take : t -> Bignum.Nat.t
