(** Deterministic random bit generator: HMAC-DRBG with SHA-256
    (NIST SP 800-90A), without prediction-resistance reseeding. *)

type t

(** [create ~seed] instantiates from arbitrary entropy input. Distinct seeds
    yield independent streams; the same seed reproduces the same stream. *)
val create : seed:string -> t

(** [generate t n] produces [n] pseudo-random bytes and advances the state. *)
val generate : t -> int -> string

(** Mix additional entropy into the state. *)
val reseed : t -> string -> unit

(** An independent generator in the same state: it produces the bytes
    [t] would produce next, and draws on either leave the other's
    stream unchanged. Reads [t] without changing it. *)
val copy : t -> t
