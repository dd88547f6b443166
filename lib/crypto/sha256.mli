(** SHA-256 (FIPS 180-4), pure OCaml.

    The digest is returned as a 32-byte binary string. A streaming interface
    is provided for incremental hashing. *)

type ctx

val init : unit -> ctx
val update : ctx -> string -> unit

(** Finalize; the context must not be reused afterwards. *)
val finalize : ctx -> string

(** An independent context in the same state: HMAC absorbs each key pad
    once and resumes from a copy for every message. *)
val copy : ctx -> ctx

(** One-shot digest of a full message. *)
val digest : string -> string

(** Hex rendering of a binary digest. *)
val hex : string -> string

val digest_hex : string -> string

(** Digest size in bytes (32). *)
val size : int

(** Block size in bytes (64) — needed by HMAC. *)
val block_size : int
