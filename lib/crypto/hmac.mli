(** HMAC-SHA-256 (RFC 2104 / FIPS 198-1). *)

(** [mac ~key msg] is the 32-byte HMAC-SHA-256 tag. *)
val mac : key:string -> string -> string

val mac_hex : key:string -> string -> string

(** A key with both pad blocks already compressed: each tag under it
    saves the two compressions [mac] spends on the pads. Immutable. *)
type key

val prepare : string -> key

(** [mac_with (prepare key) msg = mac ~key msg]. *)
val mac_with : key -> string -> string
