(** CRC-32 (IEEE polynomial 0xEDB88320), as used by zlib/PNG. Values fit
    in 32 bits and are returned as non-negative OCaml ints. *)

val string : string -> int

(** [sub s ~pos ~len] — CRC of the substring. *)
val sub : string -> pos:int -> len:int -> int
