(** Shared sub-protocol building blocks.

    The central idiom is the {e pick}, which SecWorst, SecUpdate,
    SecDedup's Replace mode and SecJoin run where the paper selects
    under a second, Damgård–Jurik layer (DESIGN §3a items 15 and 16): S1
    sends each value a select would choose as [Enc(x + rho)], [rho]
    fresh and uniform on [Z_n]; S2, which decrypts the equality bits
    anyway, decrypts the uniform [u = x + rho] and answers fresh
    [Enc(t)] and [Enc(t * u)]; S1 removes [rho] with exponentiations by
    [n - rho]. One Paillier round. *)

open Bignum
open Crypto

(** Random blinding exponent drawn per the context's [blind_bits] policy
    (a unit of [Z_n] by default). *)
val blind_scalar : Ctx.s1 -> Nat.t

(** [pass_through blocks ~pass f] runs a phase over per-shard blocks:
    a block for which [pass] returns [Some out] passes through as [out]
    and costs nothing; [f] runs once, on the remaining blocks in order
    (and not at all when none remain), and its results are put back in
    their blocks' places. *)
val pass_through : 'a list -> pass:('a -> 'b option) -> ('a list -> 'b list) -> 'b list

(** [chunks sizes arr] cuts [arr] into consecutive lists of the given
    sizes: the per-block view of a fan-out or batch that ran over the
    concatenation of several blocks. *)
val chunks : int list -> 'a array -> 'a list list

(** [strip s1 c m] is [c] minus a fresh encryption of [m] by S1:
    bit-identical to [Paillier.sub c (Paillier.encrypt s1.rng m)] and
    drawing the same noise, but the encryption of [-m] comes from
    {!Paillier.encrypt_neg_with}, so no full-width negation runs.
    Counts one Paillier encryption. *)
val strip : Ctx.s1 -> Paillier.ciphertext -> Nat.t -> Paillier.ciphertext

(** The trivial encryption of zero, [1]: the empty homomorphic sum. *)
val enc_zero : Ctx.s1 -> Paillier.ciphertext

(** {2 Picks} *)

(** A mask [rho] uniform on all of [Z_n] and the noise draw of its
    encryption, both from S1's generator. Never [blind_bits]-short: S2
    decrypts [x + rho]. *)
val draw_mask : Ctx.s1 -> Nat.t * Nat.t

(** [masked pub c (rho, noise)] is [c * Enc(rho)], the encryption made
    from the drawn noise: pure, so it may fan out. Counts one Paillier
    encryption. *)
val masked : Paillier.public -> Paillier.ciphertext -> Nat.t * Nat.t -> Paillier.ciphertext

(** The fields of a candidate that a Replace pick rewrites, in wire
    order: worst, the seen slots, the EHL cells. *)
val item_fields : Enc_item.scored -> Paillier.ciphertext list

(** S1's draws for rewriting one candidate by a Replace pick: a mask
    ({!draw_mask}) per field in {!item_fields} order, then the garbage
    each field takes if S2 marks the candidate: the sentinel
    [Z = n - 1] for worst, 1 for each seen slot (so the refreshed best
    stays [-1]), and a fresh uniform value for each EHL cell. *)
type replace_draws = { masks : (Nat.t * Nat.t) array; garbage : Nat.t array }

val draw_replace : Ctx.s1 -> Enc_item.scored -> replace_draws

(** The candidate's first [|masks|] fields, in {!item_fields} order,
    each masked by its draw: what S2 decrypts. Pure. *)
val mask_fields : Paillier.public -> Enc_item.scored -> replace_draws -> Paillier.ciphertext list

(** [replace_item pub it draws reply] rewrites every field [x] of [it]
    from S2's [reply = Enc(d) :: Enc(d * u_f) per field] to
    [x * Enc(d * u)^-1 * Enc(d)^(rho + g)], which decrypts to [x] when
    [d] is 0 and to the garbage [g] when it is 1 ([u = x + rho]). The
    result's [best] is its [worst]. Pure: one [Modular.inv_many] and one
    Paillier scalar multiplication per field. Raises [Proto_error] on a
    reply of the wrong length. *)
val replace_item :
  Paillier.public -> Enc_item.scored -> replace_draws -> Paillier.ciphertext list -> Enc_item.scored
