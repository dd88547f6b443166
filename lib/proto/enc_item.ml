open Crypto

type entry = { ehl : Ehl.Ehl_plus.t; score : Paillier.ciphertext }

(* Defined ahead of [scored], so an unannotated field access still
   means a [scored]. *)
type masked = {
  ehl : Ehl.Ehl_plus.t;
  worst : Paillier.ciphertext;
  seen : Paillier.ciphertext array;
}

type scored = {
  ehl : Ehl.Ehl_plus.t;
  worst : Paillier.ciphertext;
  best : Paillier.ciphertext;
  seen : Paillier.ciphertext array;
}

(* Blinding escrow travelling with a masked item through SecDedup: the
   masks S1 (and later S2) applied, encrypted under S1's personal pk' so
   only S1 can strip them. Mirrors the field layout of [masked]. *)
type pack = {
  alphas : Paillier.ciphertext array;
  beta : Paillier.ciphertext;
  sigmas : Paillier.ciphertext array;
}

(* Pool-backed variant: noise factors are consumed in field order (ehl
   cells, worst, best, seen left to right), one modular mul each. *)
let rerandomize_scored_with pub ~noise (s : scored) =
  let rr c = Paillier.rerandomize_with pub ~noise:(noise ()) c in
  {
    ehl = Ehl.Ehl_plus.rerandomize_with pub ~noise s.ehl;
    worst = rr s.worst;
    best = rr s.best;
    seen = Array.map rr s.seen;
  }
