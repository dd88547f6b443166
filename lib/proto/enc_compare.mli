(** EncCompare — the comparison building block (functionality of Bost et
    al. [11], Section 8): S1 holds [Enc(a)], [Enc(b)] and ends with the
    plaintext bit [f := (a <= b)]; S2 ends with nothing.

    Instantiation (see DESIGN.md substitution table): S1 flips a coin,
    homomorphically forms the difference in the coin's direction, blinds it
    with a random positive multiplier and ships it to S2, who replies with
    the sign of the (signed-decoded) plaintext. The coin hides the
    direction from S2; the multiplier hides the magnitude up to a random
    factor. Values must satisfy [|a - b| * rho < n/2] (guaranteed for
    score-domain values). *)

open Crypto

(** [leq ctx a b] is [a <= b] under the signed encoding (residues above
    [n/2] are negative — the sentinel [Z] compares below every score). *)
val leq : Ctx.t -> Paillier.ciphertext -> Paillier.ciphertext -> bool

(** [leq_many ctx pairs] is [List.map (fun (a, b) -> leq ctx a b) pairs]
    in a single round: identical coins, blinding draws and trace events,
    one batch frame. *)
val leq_many :
  Ctx.t -> (Paillier.ciphertext * Paillier.ciphertext) list -> bool list
