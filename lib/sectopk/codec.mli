(** Serialization of the client's persistent artifacts: its key material
    and its query tokens. Each blob is ["STK1"], a kind byte, then its
    fields, described once as {!Proto.Codec} values: strings are
    length-prefixed and integers are 4-byte big-endian, the full
    unsigned 32-bit range (an integer beyond it is refused on encoding,
    never truncated). [decode_*] validates sizes and ranges and raises
    [Invalid_argument] on malformed input. *)

(** Client key material (the PRP key and the EHL PRF keys; Paillier keys
    travel separately through the key-management channel). *)
val encode_secret_key : Scheme.secret_key -> string

val decode_secret_key : string -> Scheme.secret_key

(** Query tokens, as sent from the client to S1. *)
val encode_token : Scheme.token -> string

val decode_token : string -> Scheme.token
