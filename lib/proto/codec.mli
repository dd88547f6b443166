(** Binary codecs: the one layer every byte format is built from —
    {!Wire}'s frames, {!Sectopk.Codec}'s key and token blobs, and every
    file of {!Store}.

    A codec describes a field type once: its encoder, its decoder, the
    closed-form size of a value's encoding and its smallest encoding.
    Formats are assembled from the primitives and combinators below, so
    a format's size cannot drift from its encoder, and a collection's
    count is checked against count x smallest element before anything
    is allocated. Integers are big-endian. Decoders check every field;
    encoders refuse values that have no encoding. Every failure raises
    [Invalid_argument]. *)

type reader

type 'a t = {
  put : Buffer.t -> 'a -> unit;
  get : reader -> 'a;
  size : 'a -> int;  (** bytes of a value's encoding *)
  min : int;  (** bytes of the smallest encoding; the size of a fixed-width codec *)
}

(** [conv dec enc c] carries [c] over a bijection. *)
val conv : ('a -> 'b) -> ('b -> 'a) -> 'a t -> 'b t

(** [check ok msg c] refuses a decoded value that fails [ok]. *)
val check : ('a -> bool) -> string -> 'a t -> 'a t

val unit : unit t
val byte : int t
val bool : bool t

(** 4 bytes, 30-bit non-negative: counts, sessions and small fields. *)
val int : int t

(** 4 bytes, the full unsigned 32-bit range: checksums, store header
    fields, blob integers. *)
val u32 : int t

(** 8 bytes, non-negative. *)
val i64 : int t

(** An IEEE double; NaN is refused. *)
val f64 : float t

(** An [int] length, then the bytes. *)
val string : string t

(** [nat width of_nat to_nat] — a natural zero-padded to [width] bytes:
    a ciphertext under a known key. *)
val nat : int -> (Bignum.Nat.t -> 'a) -> ('a -> Bignum.Nat.t) -> 'a t

(** [magic m c] — the string [m] verbatim, then [c]. *)
val magic : string -> 'a t -> 'a t

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

(** [array_n n c] — exactly [n] elements, with no count of their own. *)
val array_n : int -> 'a t -> 'a array t

(** [rest c] — elements up to the end of the input, for a table whose
    count the format implies; the last field of a format only, with
    elements of at least one byte. *)
val rest : 'a t -> 'a array t

(** An [int] count, then the elements; a count above [max] is refused. *)
val list : ?max:int -> 'a t -> 'a list t

val array : ?max:int -> 'a t -> 'a array t

(** A [bool] presence byte, then the value. *)
val option : 'a t -> 'a option t

(** One case of a tagged variant: its tag byte, its payload codec, and
    the constructor with its inverse. *)
type 'a case = Case : int * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

(** [tagged ~what mid cases] — a tag byte naming the case, then [mid],
    then the case's payload. A value that no case projects cannot be
    encoded and a tag that no case claims cannot be decoded. *)
val tagged : what:string -> 'm t -> 'a case list -> ('m * 'a) t

(** [tagged] with nothing between the tag and the payload. *)
val variant : what:string -> 'a case list -> 'a t

val encode : 'a t -> 'a -> string

(** [decode c what data] decodes all of [data]; trailing bytes are
    refused, naming [what]. *)
val decode : 'a t -> string -> string -> 'a
