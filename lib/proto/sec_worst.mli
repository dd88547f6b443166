(** SecWorst (Protocol 8.1 / Algorithm 4): the encrypted local worst score
    of one item at the current depth.

    S1 holds the target [E(I) = (EHL(o), Enc(x))] and the items [H] of the
    other queried lists at the same depth; the output is
    [Enc(x + sum of the scores of items in H encoding the same object)].
    S2 sees a randomly permuted equality bit pattern and the others'
    scores masked by fresh uniform [rho] (a pick, DESIGN §3a item 15). *)

open Crypto

(** Returns the encrypted worst score together with the equality
    indicators [Enc(t_j)] against each element of [others], in the
    {e original} order of [others] (S1 undoes its own permutation).
    SecQuery builds the item's seen vector from them. *)
val run :
  Ctx.t ->
  target:Enc_item.entry ->
  others:Enc_item.entry list ->
  Paillier.ciphertext * Paillier.ciphertext list

(** Phase-collapsed form: the independent SecWorst instances of one depth
    (one [(target, others)] pair per queried list and shard) share one
    round, one [Worst_pick] request each. Every draw is made on the
    calling domain, instance after instance, so one instance is exactly
    {!run}; diffs, masks and the final multi-exponentiations fan out.
    Raises [Proto_error] on a reply of the wrong shape. *)
val run_many :
  Ctx.t ->
  (Enc_item.entry * Enc_item.entry list) list ->
  (Paillier.ciphertext * Paillier.ciphertext list) list
