(** Authorized-client view: opening an encrypted top-k answer.

    In deployment the client holds the keys it requested from the data
    owner and decrypts the returned items itself. By default the
    decryption key is pulled from the local S2 half of the context (the
    key escrow for tests and examples); against a remote S2 daemon pass
    [~sk] explicitly — e.g. the one [Ctx.provision] returned. Object ids
    are recovered through the client's EHL+ hash dictionary
    ({!Scheme.make_resolver}); SecDedup sentinel items decrypt to
    [id = None] with scores [-1] and are filtered by {!real_results}.

    Cost: three Paillier decryptions and one table lookup per returned
    item. The first answer a process opens for a given key, modulus and
    id list also builds the dictionary, at one PRF per id; every later
    answer reuses it. *)

type opened = {
  id : string option;
  worst : int;
  best : int;
}

(** Decrypt every returned item. *)
val open_result :
  ?sk:Crypto.Paillier.secret ->
  Proto.Ctx.t ->
  Scheme.secret_key ->
  ids:string list ->
  Query.result ->
  opened list

(** Decrypted items that are real objects (drops sentinels). *)
val real_results :
  ?sk:Crypto.Paillier.secret ->
  Proto.Ctx.t ->
  Scheme.secret_key ->
  ids:string list ->
  Query.result ->
  (string * int * int) list
