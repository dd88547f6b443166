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

(** [leq_dgk ctx ~bits a b] — the DGK/Veugen bitwise comparison, the
    protocol family [11] actually builds on: S1 forms
    [Enc(d) = Enc(2^bits + b - a)], statistically blinds it, S2 decrypts
    the blinded value and returns bit encryptions of its low word, and the
    parties resolve the borrow with the DGK zero-test under a direction
    coin. S2 sees only uniform values and one coin-masked bit; unlike
    {!leq}, not even a randomized difference magnitude leaks. Requires
    [0 <= a, b < 2^bits] (no signed encoding; the caller maps sentinels).
    Costs O(bits) ciphertexts per call — the ablation bench quantifies the
    gap to {!leq}. *)
val leq_dgk : Ctx.t -> bits:int -> Paillier.ciphertext -> Paillier.ciphertext -> bool
