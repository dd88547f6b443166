(** The SecTopK scheme (Definition 4.1): [Enc] and [Token].

    [encrypt] implements Algorithm 2: each attribute column is sorted
    descending, every entry becomes [E(I) = (EHL+(o), Enc(x))], and the
    lists are shuffled by a keyed pseudo-random permutation [P_K]. The
    output reveals only [(n, M)] (Theorem 6.1). [token] implements the
    client side of Section 7: mapping the query's attribute set through
    [P_K] (plus the optional non-binary weights, which the server applies
    homomorphically). *)

open Crypto
open Dataset
open Topk

type secret_key = {
  prp_key : string;  (** [K], keying the list permutation [P_K]. *)
  ehl_keys : Prf.key list;  (** [kappa_1 .. kappa_s]. *)
  s : int;
}

type encrypted_relation
(** The server-side [ER]: permuted encrypted sorted lists. *)

(** [encrypt ?s ?domains rng pub rel] — the data-owner side of [Enc].
    [s] is the number of EHL+ PRFs (default 5, as in the paper's
    experiments). [domains > 1] parallelizes the per-item encryption over
    that many OCaml domains (the paper: "the encryption for each item can
    be fully parallelized ... we used 64 threads"); every noise draw is
    made on the calling domain in item order and only the
    exponentiations fan out ({!Core.Pool.map_drawn}), so a seed gives
    the same bytes at every [domains]. *)
val encrypt :
  ?s:int -> ?domains:int -> Rng.t -> Paillier.public -> Relation.t -> encrypted_relation * secret_key

(** [shard_rows ~key ~shards ~rows] partitions row indices [0..rows-1]
    into [shards] groups by permuting the row space with the owner-keyed
    PRP and dealing permuted positions round-robin. Sizes differ by at
    most one; membership is pseudo-random, so placement reveals nothing
    beyond the shard sizes. *)
val shard_rows : key:string -> shards:int -> rows:int -> int array array

(** [encrypt_sharded ~shards rng pub rel] encrypts [rel] as [shards]
    self-contained encrypted relations under {e one} secret key: EHL
    encodings hash global object ids and every shard's lists are
    permuted by the same [prp_key], so a single {!token} addresses all
    shards and {!make_resolver} decodes any shard's results. The row
    partition comes from {!shard_rows} under a fresh owner-drawn
    placement key (never persisted — queries don't need it). With
    [shards = 1] the output is byte-identical to {!encrypt}. *)
val encrypt_sharded :
  ?s:int ->
  ?domains:int ->
  shards:int ->
  Rng.t ->
  Paillier.public ->
  Relation.t ->
  encrypted_relation array * secret_key

val n_rows : encrypted_relation -> int
val n_attrs : encrypted_relation -> int

(** [entry er ~list ~depth] — sequential access for the server ([list] is
    a {e permuted} index). *)
val entry : encrypted_relation -> list:int -> depth:int -> Proto.Enc_item.entry

(** Total serialized size in bytes (Fig. 7b/8b). *)
val size_bytes : Paillier.public -> encrypted_relation -> int

(** [of_fetch ~n ~m fetch] wraps an entry provider — [fetch list depth]
    must return the permuted list's entry at that depth, byte-identical
    to what an in-memory relation would hold. Backing for lazily loaded
    relations (lib/store's block-cached segment files). *)
val of_fetch :
  n:int -> m:int -> (int -> int -> Ehl.Ehl_plus.t * Paillier.ciphertext) -> encrypted_relation

type token = { attrs : (int * int) list;  (** (permuted list index, weight) *) k : int }

(** [token key ~m_total scoring ~k] — the client side of [Token]. *)
val token : secret_key -> m_total:int -> Scoring.t -> k:int -> token

(** [make_resolver key ~pub ~ids] returns the client-side dictionary that
    maps a decrypted EHL+ first-cell value [HMAC(kappa_1, id) mod n] back
    to the object id — how an authorized client resolves returned items.
    SecDedup garbage items (random cells) and unknown values resolve to
    [None].

    Cost: the first call for a given [kappa_1], modulus [n] and id list
    evaluates |[ids]| PRFs; later calls with equal values (compared by
    content, so a re-provisioned [pub] or a rebuilt list still matches)
    evaluate none and reuse the same table. The process keeps only the
    last dictionary it built, and any domain may call this. *)
val make_resolver :
  secret_key -> pub:Paillier.public -> ids:string list -> Bignum.Nat.t -> string option
