(** Durable on-disk encrypted index.

    A store directory holds one published generation of the encrypted
    relation: a checksummed [MANIFEST] and one segment file per permuted
    sorted list (fixed-width ciphertext records in depth order, so a list
    prefix of depth [d] is served without reading the rest of the file).
    Files the manifest does not name are ignored. Publication is atomic:
    every file of a new generation is written to a temp name, fsynced and
    renamed, and the [rename] of [MANIFEST] is the single commit point — a
    crash at any earlier instant leaves the previous generation fully
    readable.

    Every file is described once, as a {!Proto.Codec} value. A record is
    [s] EHL+ cells then the score, each a big-endian natural padded to
    the ciphertext width of the Paillier key, so store-backed entries
    are byte-identical to the in-memory path. Every file ends with a
    CRC-32 that is checked, after its magic and version, before
    anything it covers is decoded.

    Reads are lazy: segment bodies are mapped into an LRU block cache
    ({!Obs.Metrics.Store_read_bytes} / [Cache_hit] / [Cache_miss]); each
    block is verified against the per-block CRC table in the segment
    header when it is first loaded. *)

open Crypto

(** Typed failures raised as {!Error} by {!open_index}, {!build} and by
    lazy block loads that hit corruption. *)
type error =
  | Missing of string  (** expected file absent *)
  | Bad_magic of string
  | Bad_version of { file : string; version : int }
  | Truncated of string
  | Corrupt of string  (** checksum mismatch or structural damage *)
  | Key_mismatch of string
      (** store was built under a different Paillier key / key size *)

exception Error of error

val error_message : error -> string

type t

(** [build ~dir pub er] encrypts nothing — it serializes an already
    encrypted relation into [dir] as a new generation and publishes it
    atomically. [block_records] is the cache/checksum granularity
    (records per block, default 16). An existing generation in [dir] is
    superseded, never modified in place. *)
val build : ?block_records:int -> dir:string -> Paillier.public -> Sectopk.Scheme.encrypted_relation -> unit

(** [open_index ~dir pub] validates the manifest and every segment
    header and returns a lazily reading handle.
    Raises {!Error} on missing, truncated, corrupted or key-mismatched
    files, after closing every file it opened. [cache_blocks] bounds the
    LRU block cache (default 64 blocks). *)
val open_index : ?cache_blocks:int -> dir:string -> Paillier.public -> t

val close : t -> unit

(** Rows per list, as the manifest records them. *)
val n_rows : t -> int

val n_attrs : t -> int

(** EHL+ cell count [s]. *)
val cells : t -> int

val generation : t -> int
val block_records : t -> int

(** Bytes on disk across manifest and segments. *)
val disk_bytes : t -> int

(** [entry t ~list ~depth] — the store-backed equivalent of
    {!Sectopk.Scheme.entry}; loads (and caches) the containing block on
    demand. Raises {!Error} [(Corrupt _)] if the block fails its
    checksum, and [Invalid_argument] for a list or depth outside the
    index or a closed store. Safe to call from multiple domains. *)
val entry : t -> list:int -> depth:int -> Proto.Enc_item.entry

(** The lazily backed relation: {!Sectopk.Query.run} over this value
    must be byte-identical to running over the in-memory relation it was
    built from. *)
val relation : t -> Sectopk.Scheme.encrypted_relation

(** [verify t] force-reads every block of every segment through the
    checksum path (cold blocks only; cached blocks were already
    verified). Raises {!Error} on the first corrupt block. *)
val verify : t -> unit

(** Horizontally sharded indexes: a directory of ordinary store
    directories ([shard_0], [shard_1], ...) bound together by a
    checksummed top-level [SHARDMAP] carrying the shard count, per-shard
    row counts and generations, the key fingerprint, and the CRC of
    every shard's published [MANIFEST] bytes. Publication follows the
    same discipline as a single store: every shard commits first, then
    the [SHARDMAP] rename publishes the set as a whole. Opening
    validates each shard's manifest against the map before trusting it,
    so a missing shard directory is [Missing], a shard rebuilt out of
    band (or under a different Paillier key) is [Corrupt] /
    [Key_mismatch] — never a silently inconsistent serving set. *)
module Sharded : sig
  val map_name : string

  (** [shard_dir_name i] is the relative directory of shard [i]
      (["shard_0"], ["shard_1"], ...). *)
  val shard_dir_name : int -> string

  (** [build ~dir pub ers] publishes one store per shard under [dir]
      plus the binding [SHARDMAP]. *)
  val build :
    ?block_records:int ->
    dir:string ->
    Paillier.public ->
    Sectopk.Scheme.encrypted_relation array ->
    unit

  (** [open_index ~dir pub] validates the shard map and every shard
      (fingerprint, manifest CRC, shape) and opens them all; on any
      failure every already-opened shard is closed and the typed
      {!Error} propagates. *)
  val open_index : ?cache_blocks:int -> dir:string -> Paillier.public -> t array

  (** Whether [dir] holds a sharded index (a [SHARDMAP] is present). *)
  val is_sharded : dir:string -> bool

  (** Shard count from the map alone (no key required). Raises {!Error}
      on a missing or damaged map. *)
  val shard_count : dir:string -> int
end
