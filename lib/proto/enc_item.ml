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

(* Draws in field order: ehl cells, worst, best, seen left to right. *)
let rerandomize_scored rng pub (s : scored) =
  let rr = Paillier.rerandomize rng pub in
  let ehl = Ehl.Ehl_plus.rerandomize rng pub s.ehl in
  let worst = rr s.worst in
  let best = rr s.best in
  { ehl; worst; best; seen = Array.map rr s.seen }
