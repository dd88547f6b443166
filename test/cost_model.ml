(* Expected op counts for the paper's sub-protocols (Algorithms 3-8),
   parameterised by the EHL+ cell count [cells] (the paper's s), the seen
   bit-vector width [seen] (one slot per source list, m), and the
   serialized ciphertext sizes.  The tier-1 test in test/test_obs.ml
   asserts these match measured counters *exactly* on small instances. *)
open Obs

type params = {
  cells : int;  (* EHL+ cells per item, s *)
  seen : int;  (* seen-vector width, m *)
  ct : int;  (* Paillier ciphertext bytes (S2 keypair) *)
  own_ct : int;  (* Paillier ciphertext bytes (S1's own keypair) *)
  req_base : int;  (* Wire request header bytes, excluding the label *)
  resp_base : int;  (* Wire response header bytes *)
}

type counts = {
  penc : int; pdec : int; pmul : int; prr : int;
  bytes : int; msgs : int; rounds : int;
}

let zero =
  { penc = 0; pdec = 0; pmul = 0; prr = 0; bytes = 0; msgs = 0; rounds = 0 }

let to_alist c =
  Metrics.
    [ (Paillier_enc, c.penc); (Paillier_dec, c.pdec); (Paillier_mul, c.pmul);
      (Paillier_rerand, c.prr);
      (Bytes_sent, c.bytes); (Msgs, c.msgs); (Rounds, c.rounds) ]

(* Bytes are measured from the Wire frames an rpc actually ships: a
   request costs [req_base + |label|] of header plus its payload, a
   response costs [resp_base] plus its payload; collection payloads add
   a 4-byte count prefix per list (wire.ml's closed forms). *)
let req p ~label payload = p.req_base + String.length label + payload
let resp p payload = p.resp_base + payload

(* One batched rpc round over element payload lists ([Ctx.rpc_batch]'s
   framing): no elements → no traffic; a singleton delegates to a plain
   rpc; two or more ship one Batch/Batch_resp frame — a 4-byte count
   plus a tag byte per element on each side, one round, two messages. *)
let batch_cost p ~label req_payloads resp_payloads =
  match (req_payloads, resp_payloads) with
  | [], [] -> (0, 0, 0)
  | [ rq ], [ rs ] -> (req p ~label rq + resp p rs, 2, 1)
  | _ ->
    let sum = List.fold_left (fun acc pl -> acc + 1 + pl) 4 in
    (req p ~label (sum req_payloads) + resp p (sum resp_payloads), 2, 1)

(* Serialized scored item (count prefixes + fixed-width ciphertexts);
   SecDedup's masked item (no best score) and its escrow pack under
   S1's own key. *)
let scored_b p = 8 + ((p.cells + 2 + p.seen) * p.ct)
let masked_b p = 8 + ((p.cells + 1 + p.seen) * p.ct)
let pack_b p = 8 + ((p.cells + 1 + p.seen) * p.own_ct)

(* EncCompare (blinded sign test): one homomorphic subtraction plus a
   blinding scalar_mul on S1, one signed decryption on S2; the rpc ships
   one ciphertext out and a sign byte back. *)
let enc_compare p =
  { zero with
    pmul = 2;
    pdec = 1;
    bytes = req p ~label:"EncCompare" p.ct + resp p 1;
    msgs = 2;
    rounds = 1 }

(* SecWorst (Alg. 4) against [others] candidate lists, one pick: per
   other an EHL+ diff (one scalar_mul per cell) and a masked score (one
   encryption of its mask) out; S2 decrypts both and answers the
   masked sum and one Enc(t) per other; S1 removes the masks with one
   multi-exponentiation (a scalar_mul per other). *)
let sec_worst_ops p j =
  { zero with penc = 1 + (2 * j); pdec = 2 * j; pmul = (p.cells * j) + j }

let sec_worst_req j p = 4 + (j * p.ct) + 4 + (j * p.ct)
let sec_worst_resp j p = 4 + ((1 + j) * p.ct)

let sec_worst p ~others:j =
  { (sec_worst_ops p j) with
    bytes = req p ~label:"SecWorst" (sec_worst_req j p) + resp p (sec_worst_resp j p);
    msgs = 2;
    rounds = 1 }

(* SecDedup over [items] candidates of which [dups] are non-keeper
   duplicates, one rpc carrying the count-prefixed pairwise EHL+ diffs
   (one scalar_mul per cell each).
   - Replace, a pick: every field (cells, worst, seen) masked (one
     encryption each); S2 decrypts the matrix and every field and
     answers Enc(d) and Enc(d * u) per field; S1 rewrites each field
     with one scalar_mul. Independent of [dups].
   - Eliminate (Alg. 6/7): masked items with escrow packs; S2 re-masks
     the survivors, S1 unmasks them with one encryption per component
     (of the negated mask: no scalar_mul). *)
let sec_dedup p ~mode ~items:l ~dups:d =
  if l = 0 then zero
  else begin
    let pairs = l * (l - 1) / 2 in
    let cell = p.cells + 1 + p.seen in
    let diffs_b = 4 + (pairs * p.ct) in
    match mode with
    | `Replace ->
      { zero with
        pmul = (p.cells * pairs) + (l * cell);
        pdec = pairs + (l * cell);
        penc = (l * cell) + (l * (1 + cell));
        bytes =
          req p ~label:"SecDedup" (diffs_b + 4 + (l * (4 + (cell * p.ct))))
          + resp p (4 + (l * (1 + cell) * p.ct));
        msgs = 2;
        rounds = 1 }
    | `Eliminate ->
      let item_b = masked_b p + pack_b p in
      let kept = l - d in
      { zero with
        pmul = p.cells * pairs;
        pdec = pairs + (kept * cell);
        penc = (2 * cell * l) + (2 * cell * kept) + (kept * cell);
        bytes = req p ~label:"SecDedup" (diffs_b + 4 + (l * item_b)) + resp p (4 + (kept * item_b));
        msgs = 2;
        rounds = 1 }
  end

let add a b =
  { penc = a.penc + b.penc; pdec = a.pdec + b.pdec; pmul = a.pmul + b.pmul;
    prr = a.prr + b.prr;
    bytes = a.bytes + b.bytes; msgs = a.msgs + b.msgs; rounds = a.rounds + b.rounds }

let sum = List.fold_left add zero

(* EncCompare.leq_many over [pairs] comparisons: per pair the same two
   scalar_muls and one signed decryption as [enc_compare], all sign
   tests in one batch round. Reduces to [enc_compare] at one pair. *)
let enc_compare_many p ~pairs =
  if pairs = 0 then zero
  else begin
    let b, m, r =
      batch_cost p ~label:"EncCompare"
        (List.init pairs (fun _ -> p.ct))
        (List.init pairs (fun _ -> 1))
    in
    { zero with pmul = 2 * pairs; pdec = pairs; bytes = b; msgs = m; rounds = r }
  end

(* Sec_worst.run_many over instances with [others] candidate-list
   widths: per-instance crypto is the sum of the singleton bodies, and
   every instance's pick shares one batch: one round however many
   instances (lists x shards) one depth carries. Reduces to
   [sec_worst] at a single instance. *)
let sec_worst_many p ~others =
  let ops = sum (List.map (sec_worst_ops p) others) in
  let bytes, msgs, rounds =
    batch_cost p ~label:"SecWorst"
      (List.map (fun j -> sec_worst_req j p) others)
      (List.map (fun j -> sec_worst_resp j p) others)
  in
  { ops with bytes; msgs; rounds }

(* EncSort, blinded strategy, over [items] scored candidates: blind +
   encrypt + signed-decrypt per item, full re-randomization on return;
   one Sort_items rpc carries keys + items out and the sorted items
   back. *)
let enc_sort_blinded p ~items:l =
  let cell = p.cells + 2 + p.seen in
  { penc = l;
    pdec = l;
    pmul = l;
    prr = l * cell;
    bytes =
      req p ~label:"EncSort" (4 + (l * p.ct) + 4 + (l * scored_b p))
      + resp p (4 + (l * scored_b p));
    msgs = 2;
    rounds = 1 }

(* One halting checkpoint (SecQuery's "ShardMerge" span): sort the
   concatenated running lists, then one batched NRA test — a pair per
   candidate outside the top-k plus one unseen-bound pair per
   non-exhausted shard. Two rounds, whatever [bounds] (the shard
   count) is: sharding widens the batches, never the round count. *)
let shard_merge p ~items ~k ~bounds =
  let sort = enc_sort_blinded p ~items in
  if items < k then sort
  else sum [ sort; enc_compare_many p ~pairs:(items - k + bounds) ]
