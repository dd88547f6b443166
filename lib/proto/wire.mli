(** Tagged, versioned binary codec for every S1 <-> S2 message, and for
    the client <-> S1 front-end frames.

    Frame layout (big-endian throughout, following {!Sectopk.Codec}'s
    fixed-width conventions):

    {v
    "STKW" | version | kind | tag | session       -- 11-byte header
    requests additionally: len | label            -- protocol name
    then the tag-specific payload
    v}

    Each frame is described once, by a private codec layer: a codec
    gives a field type's encoder, its decoder, the closed-form size of a
    value's encoding and its smallest encoding. Primitives (30-bit int,
    8-byte int and float, bool, length-prefixed string, fixed-width
    ciphertext) and combinators (tuples, capped lists and arrays,
    option, tagged-variant cases) build every frame kind. Hence
    {!request_bytes}/{!response_bytes} — what the Inproc and Mux
    transports charge without materialising a frame — cannot drift from
    the encoders; every collection count is checked against count x
    smallest element before anything is allocated; and a [Batch] cannot
    nest, since the batch element codec has no batch case.

    Ciphertexts are zero-padded fixed-width naturals: [ciphertext_bytes pub]
    for values under the shared key, [ciphertext_bytes own_pub] for S1's
    escrow key, [ciphertext_bytes djpub] for Damgård–Jurik values, so
    the keyed codecs live in {!keys}, built once by {!keys_of}.

    All decoders validate magic, version, kind, tag, field bounds and
    trailing bytes; every failure raises [Invalid_argument]. *)

open Crypto

(** The frame codecs for one key set, built once by {!keys_of}. *)
type keys

val keys_of :
  pub:Paillier.public ->
  djpub:Damgard_jurik.public ->
  own_pub:Paillier.public ->
  keys

type dedup_mode = Replace | Eliminate

(** A joined tuple in flight through SecFilter, with its blinding escrow
    under S1's personal key. *)
type tuple = {
  score : Paillier.ciphertext;
  attrs : Paillier.ciphertext array;
  r_escrow : Paillier.ciphertext list;
  a_escrow : Paillier.ciphertext array;
}

type request =
  | Sign_of of Paillier.ciphertext  (** EncCompare: sign of a blinded difference *)
  | Equality of Paillier.ciphertext list  (** SecWorst/SecUpdate/SecJoin *)
  | Conjunction of Paillier.ciphertext list list  (** multi-way join predicate *)
  | Recover of Damgard_jurik.ciphertext  (** RecoverEnc: strip the outer layer *)
  | Lift of Paillier.ciphertext list  (** SecRefresh: Enc -> E2 *)
  | Dgk_low_bits of { bits : int; z : Paillier.ciphertext }
      (** DGK: bitwise decomposition of the blinded difference *)
  | Zero_any of Paillier.ciphertext list  (** DGK: any c_i = 0? (traced) *)
  | Zero_test of Paillier.ciphertext  (** DGK equality corner (untraced) *)
  | Mult of Paillier.ciphertext * Paillier.ciphertext  (** SKNN secure multiply *)
  | Lsb of Paillier.ciphertext  (** SBD bit extraction *)
  | Dedup of {
      mode : dedup_mode;
      diffs : Paillier.ciphertext list;  (** pairwise blinded EHL diffs, {!pair_indices} order *)
      items : (Enc_item.scored * Enc_item.pack) list;  (** masked items + escrows *)
    }
  | Dup_flags of Damgard_jurik.ciphertext list  (** SecUpdate eliminate: reveal matches *)
  | Sort_items of { keys : Paillier.ciphertext list; items : Enc_item.scored list }
      (** EncSort blinded one-round strategy *)
  | Sort_gate of {
      descending : bool;
      kx : Paillier.ciphertext;
      ky : Paillier.ciphertext;
      x : Enc_item.scored;
      y : Enc_item.scored;
    }  (** EncSort bitonic compare-exchange gate *)
  | Filter of tuple list  (** SecFilter: drop zero-scored tuples *)
  | Rank_tuples of (Paillier.ciphertext * Paillier.ciphertext * Paillier.ciphertext array) list
      (** blinded descending sort of joined tuples: (key, score, attrs) *)
  | Rank_keys of Paillier.ciphertext list  (** SKNN: ascending rank of blinded keys *)
  | Zero_slot of Paillier.ciphertext list  (** SKNN SMIN: first zero slot *)
  | Batch of request list
      (** independent requests shipped as one frame (one round); nesting a
          [Batch] inside a [Batch] raises [Invalid_argument] in both the
          encoder and the decoder *)

type response =
  | Sign of int  (** -1 | 0 | 1 *)
  | Bits2 of Damgard_jurik.ciphertext list  (** E2 equality bits *)
  | Ct of Paillier.ciphertext
  | Dgk_bits of { bit_cts : Paillier.ciphertext list; parity : bool }
  | Bit of bool
  | Flags of bool list
  | Items of (Enc_item.scored * Enc_item.pack) list
  | Sorted of Enc_item.scored list
  | Pair of Enc_item.scored * Enc_item.scored
  | Tuples of tuple list
  | Ranked of (Paillier.ciphertext * Paillier.ciphertext array) list
  | Indices of int list
  | Slot of int option
  | Batch_resp of response list
      (** element-wise responses to a [Batch], in request order; nesting
          rejected like [Batch] *)

(** One element of a multiplexed frame (kind byte ['M']): the round
    scheduler ({!Sched}) coalesces ops parked by many concurrent queries
    into a single frame, each op tagged with the session it belongs to.
    [Mux_open] makes S2 provision a fresh responder for the session (the
    same [of_hello] replay the connection's [Hello] ran); [Mux_close]
    retires it; [Mux_fork]/[Mux_join] open and fold back a child
    session (no S1 code sends them any more: a sharded query batches
    every shard into its own session; they stay while
    [benchmark/harness/traced.ml] matches them); [Mux_req] is one
    ordinary request routed to its session. *)
type mux_op =
  | Mux_open of { session : int }
  | Mux_close of { session : int }
  | Mux_fork of { parent : int; child : int; label : string }
  | Mux_join of { parent : int; child : int }
  | Mux_req of { session : int; label : string; req : request }

(** Element-wise replies to a mux frame (kind byte ['N']), in op order:
    [Mux_ok] answers the session-management ops, [Mux_answer] a
    [Mux_req]. *)
type mux_reply = Mux_ok | Mux_answer of response

(** Provisioning parameters replayed by the daemon to rebuild the exact key
    material and randomness streams of the client's context (see
    [Ctx.provision]). *)
type hello = { seed : string; key_bits : int; rand_bits : int option; obs : bool }

(** Connection-level frames (kind byte ['C']), outside the protocol's
    bandwidth accounting. [Hello] provisions an S2 connection; every
    later frame on it is a mux frame or a [Stats_req]. *)
type control =
  | Hello of hello
  | Stats_req
      (** live-telemetry scrape: answered with a full registry snapshot
          ({!Stats_resp}).  Decoding needs no key material, so any
          monitoring client can speak it. *)

type control_reply =
  | Ok_ctl  (** acknowledges a [Hello] *)
  | Stats_resp of Obs.Registry.snapshot
      (** registry snapshot; integer fields travel as 8 bytes (histogram
          sums outgrow the 30-bit collection-length cap), gauges as IEEE
          doubles.  The decoder re-checks histogram internal consistency
          (bucket counts sum to [hcount], [hmin <= hmax]). *)

(** The (i, j) pair order of SecDedup's pairwise matrix: for [l] items, all
    [i < j] pairs with [i] ascending, then [j] ascending. *)
val pair_indices : int -> (int * int) array

val encode_request : keys -> session:int -> label:string -> request -> string
val decode_request : keys -> string -> int * string * request
val encode_response : keys -> response -> string
val decode_response : keys -> string -> response
val encode_control : control -> string
val decode_control : string -> control
val encode_control_reply : control_reply -> string
val decode_control_reply : string -> control_reply

(** Multiplex envelope codec: one frame of correlation-tagged ops from
    many queries, one frame of element-wise replies. Malformed input —
    bad tags, truncated payloads, trailing bytes, a nested batch inside
    a [Mux_req] — raises [Invalid_argument] like every other codec
    path. *)
val encode_mux : keys -> mux_op list -> string

val decode_mux : keys -> string -> mux_op list
val encode_mux_replies : keys -> mux_reply list -> string
val decode_mux_replies : keys -> string -> mux_reply list

(** {2 Client <-> S1 front-end frames}

    Spoken between a querying client and the lib/server front-end (kind
    bytes 'U'/'V'): the token travels as an opaque {!Sectopk.Codec} blob,
    results come back still encrypted, and overload is a typed {!Busy}
    rather than a stall. *)

type client_msg = Query_req of { token : string }

(** The largest valid client frame: a [Query_req] carrying the longest
    token the decoder accepts (64 KiB), header and length prefix
    included. serve-s1 caps {!read_frame} with it. *)
val max_client_frame : int

type server_msg =
  | Server_hello of { n : int; m : int; s : int; key_bits : int }
      (** sent once per connection, before any query: the public shape a
          client needs to build tokens and resolve results *)
  | Query_resp of { top : Enc_item.scored list; halting_depth : int; halted : bool }
  | Busy  (** admission queue full — retry later *)
  | Server_error of string

val encode_client_msg : client_msg -> string
val decode_client_msg : string -> client_msg
val encode_server_msg : keys -> server_msg -> string
val decode_server_msg : keys -> string -> server_msg

(** Closed-form frame sizes, equal to [String.length (encode_* ...)]
    by construction (and pinned by the Wire property tests). *)
val request_bytes : keys -> label:string -> request -> int

val response_bytes : keys -> response -> int

(** Header overhead: request frames cost [request_header_bytes ~label] on
    top of the payload; responses cost [response_header_bytes]. *)
val request_header_bytes : label:string -> int

val response_header_bytes : int

(** Length-prefixed framing over a file descriptor (S2 daemon and
    serve-s1 connections). The 4-byte prefix is transport plumbing,
    excluded from bandwidth accounting. [read_frame] returns [None] on
    clean EOF. A prefix announcing more than [max] bytes (default
    [0x3fffffff]) raises [Invalid_argument] before any payload is read
    or allocated, so servers pass a small [max] until the peer has
    authenticated. *)
val write_frame : Unix.file_descr -> string -> unit

val read_frame : ?max:int -> Unix.file_descr -> string option

(** Peek at the kind byte of a raw frame ('M' mux, 'C' control, ...). *)
val frame_kind : string -> char option
