open Bignum
open Crypto

type t = {
  pub : Paillier.public;
  sk : Paillier.secret;
  own_pub : Paillier.public;
  rng : Rng.t;
  trace : Trace.t;
}

let create ~pub ~sk ~own_pub ~rng = { pub; sk; own_pub; rng; trace = Trace.create () }

let trace t = t.trace
let secret_key t = t.sk

let fork t ~label = { t with rng = Rng.fork t.rng ~label; trace = Trace.create () }
let join sub ~into = Trace.append_into sub.trace ~into:into.trace

(* Rebuild key material and the S2 randomness stream from the client's
   provisioning parameters, consuming the seeded root generator in exactly
   the order [Ctx.provision] and [Ctx.derive] do. Demo/test provisioning
   only: a real deployment would ship keys out-of-band (the replay also
   derives S1's personal key pair, whose secret half S2 must never use).
   The derived "s2" generator is never drawn from: each responder starts
   from a copy, the state a fresh replay reaches. *)
let provision (h : Wire.hello) =
  let root = Rng.create ~seed:h.seed in
  let pub, sk = Paillier.keygen ?rand_bits:h.rand_bits root ~bits:h.key_bits in
  let ctx_rng = Rng.fork root ~label:"ctx" in
  let s1_rng = Rng.fork ctx_rng ~label:"s1" in
  (* same noise policy as [Ctx.derive] gives this key — the two
     derivations must stay in lockstep *)
  let own_pub, _own_sk =
    Paillier.keygen ?rand_bits:h.rand_bits s1_rng ~bits:(pub.Paillier.key_bits + 16)
  in
  let rng = Rng.fork ctx_rng ~label:"s2" in
  (* warm the per-key tables (Montgomery contexts, fixed-base combs)
     before the first request *)
  Obs.span "comb_warmup" (fun () ->
      Paillier.precompute pub;
      Paillier.precompute own_pub);
  fun () -> create ~pub ~sk ~own_pub ~rng:(Rng.copy rng)

let of_hello h = provision h ()

(* ---------------- per-request handlers ----------------

   Everything below is S2's view: it sees only what arrives in the
   request, decrypts what the protocol lets it decrypt, and records each
   revealed fact in its trace under the request's protocol label. *)

(* S2 layers its own randomness on a masked SecDedup item and updates the
   escrow pack under S1's personal key accordingly (Algorithm 7). *)
let dedup_remask t (it : Enc_item.masked) (pack : Enc_item.pack) =
  let n = t.pub.Paillier.n in
  let own_pub = t.own_pub in
  let cells = Ehl.Ehl_plus.length it.ehl in
  let alphas' = Array.init cells (fun _ -> Rng.nat_below t.rng n) in
  let beta' = Rng.nat_below t.rng n in
  let sigmas' = Array.map (fun _ -> Rng.nat_below t.rng n) it.seen in
  let it' : Enc_item.masked =
    {
      ehl =
        Ehl.Ehl_plus.mask t.pub it.ehl
          (Array.map (fun a -> Paillier.encrypt t.rng t.pub a) alphas');
      worst = Paillier.add t.pub it.worst (Paillier.encrypt t.rng t.pub beta');
      seen =
        Array.mapi
          (fun l u -> Paillier.add t.pub u (Paillier.encrypt t.rng t.pub sigmas'.(l)))
          it.seen;
    }
  in
  let pack' : Enc_item.pack =
    {
      alphas =
        Array.mapi
          (fun c a -> Paillier.add own_pub a (Paillier.encrypt t.rng own_pub alphas'.(c)))
          pack.Enc_item.alphas;
      beta = Paillier.add own_pub pack.Enc_item.beta (Paillier.encrypt t.rng own_pub beta');
      sigmas =
        Array.mapi
          (fun l a -> Paillier.add own_pub a (Paillier.encrypt t.rng own_pub sigmas'.(l)))
          pack.Enc_item.sigmas;
    }
  in
  (it', pack')

let eq_bits t diffs = List.map (fun c -> Nat.is_zero (Paillier.decrypt t.sk c)) diffs

(* ---- picks ----

   S1 masks every value a pick selects with a fresh rho uniform on Z_n,
   so each masked plaintext S2 decrypts is uniform; the equality bits
   that drive the selects are recorded, and every answer is a fresh
   encryption. *)

let enc t v = Paillier.encrypt t.rng t.pub v
let enc_bit t b = enc t (if b then Nat.one else Nat.zero)

let decrypt_rows t rows =
  Array.of_list (List.map (fun r -> Array.of_list (List.map (Paillier.decrypt t.sk) r)) rows)

(* the common length of [rows], which must all have it *)
let width what rows =
  match rows with
  | [] -> 0
  | r :: rest ->
    let w = List.length r in
    if List.exists (fun r -> List.length r <> w) rest then invalid_arg ("S2_server: ragged " ^ what);
    w

(* S2's view of a pairwise dedup matrix: it decrypts every diff, records
   the equal pairs, and keeps the highest index of every duplicate
   group; [true] marks the others. *)
let duplicates t ~label ~size diffs =
  let pair_idx = Wire.pair_indices size in
  if List.length diffs <> Array.length pair_idx then
    invalid_arg "S2_server: dedup pair count mismatch";
  let pair_eq = Array.of_list (eq_bits t diffs) in
  let equal_pairs = Array.to_list pair_idx |> List.filteri (fun idx _ -> pair_eq.(idx)) in
  Trace.record t.trace (Trace.Dedup_matrix { protocol = label; size; equal_pairs });
  let duplicate = Array.make size false in
  List.iter (fun (i, _) -> duplicate.(i) <- true) equal_pairs;
  duplicate

(* Replace mode's answer for one item: Enc(d), then Enc(d * u) per field. *)
let replace_answer t d us =
  let ed = enc_bit t d in
  ed :: Array.to_list (Array.map (fun u -> enc t (if d then u else Nat.zero)) us)

let rec handle t ~label (req : Wire.request) : Wire.response =
  match req with
  | Wire.Batch reqs ->
    (* a batch is exactly its elements handled in order: same decryptions,
       same trace events, same rng draws as singleton execution *)
    Wire.Batch_resp (List.map (handle t ~label) reqs)
  | Wire.Sign_of c ->
    let sign = Bigint.sign (Paillier.decrypt_signed t.sk c) in
    Trace.record t.trace (Trace.Comparison { protocol = label; ordering = sign });
    Wire.Sign sign
  | Wire.Refresh { bottoms; bits } ->
    (* SecRefresh: every plaintext here is uniform — masked bottoms and
       coin-flipped seen bits — so nothing is recorded. Pair i (item
       major) answers Enc(b_i * v_(i mod m)), a fresh encryption. *)
    let m = List.length bottoms in
    if m = 0 || List.length bits mod m <> 0 then invalid_arg "S2_server: ragged refresh block";
    let vs = Array.of_list (List.map (Paillier.decrypt t.sk) bottoms) in
    let bs =
      List.map
        (fun c ->
          let b = Paillier.decrypt t.sk c in
          if Nat.is_zero b then false
          else if Nat.is_one b then true
          else invalid_arg "S2_server: refresh bit is not a bit")
        bits
    in
    Wire.Cts
      (List.mapi
         (fun i b -> Paillier.encrypt t.rng t.pub (if b then vs.(i mod m) else Nat.zero))
         bs)
  | Wire.Mult (a, b) ->
    let n = t.pub.Paillier.n in
    let ha = Paillier.decrypt t.sk a and hb = Paillier.decrypt t.sk b in
    Wire.Ct (Paillier.encrypt t.rng t.pub (Modular.mul ha hb ~m:n))
  | Wire.Lsb c ->
    let y = Paillier.decrypt t.sk c in
    Wire.Ct (Paillier.encrypt t.rng t.pub (if Nat.is_even y then Nat.zero else Nat.one))
  | Wire.Dedup { diffs; items } ->
    let duplicate = duplicates t ~label ~size:(List.length items) diffs in
    let kept =
      List.filteri (fun i _ -> not duplicate.(i)) items
      |> List.map (fun (it, pack) -> dedup_remask t it pack)
    in
    Trace.record t.trace (Trace.Count { protocol = "SecDupElim"; value = List.length kept });
    (* second permutation before the items travel back *)
    let out = Array.of_list kept in
    ignore (Rng.shuffle t.rng out);
    Wire.Items (Array.to_list out)
  | Wire.Dedup_pick { diffs; items } ->
    ignore (width "dedup pick item" items);
    let duplicate = duplicates t ~label ~size:(List.length items) diffs in
    let us = decrypt_rows t items in
    Wire.Cts
      (List.concat (List.init (Array.length us) (fun i -> replace_answer t duplicate.(i) us.(i))))
  | Wire.Join_pick { diffs; fields } ->
    (* a combination's verdict holds iff its diff decrypts to zero *)
    if List.length fields <> List.length diffs then
      invalid_arg "S2_server: join pick count mismatch";
    ignore (width "join pick fields" fields);
    let bits = eq_bits t diffs in
    Trace.record t.trace (Trace.Equality_bits { protocol = label; bits });
    let us = decrypt_rows t fields in
    Wire.Cts (List.concat (List.mapi (fun i b -> replace_answer t b us.(i)) bits))
  | Wire.Worst_pick { diffs; scores } ->
    if List.length scores <> List.length diffs then
      invalid_arg "S2_server: worst pick count mismatch";
    let bits = eq_bits t diffs in
    Trace.record t.trace (Trace.Equality_bits { protocol = label; bits });
    let n = t.pub.Paillier.n in
    let sum =
      List.fold_left2
        (fun acc b c ->
          let u = Paillier.decrypt t.sk c in
          if b then Modular.add acc u ~m:n else acc)
        Nat.zero bits scores
    in
    let sum = enc t sum in
    Wire.Cts (sum :: List.map (enc_bit t) bits)
  | Wire.Update_pick { mode; diffs; merged; cells } ->
    let rows = List.length merged in
    let fields = width "update pick fields" merged in
    if rows = 0 || List.length diffs mod rows <> 0 then invalid_arg "S2_server: ragged update grid";
    ignore (width "update pick cells" cells);
    (match mode with
    | Wire.Replace when List.length cells = rows -> ()
    | Wire.Eliminate when cells = [] -> ()
    | _ -> invalid_arg "S2_server: ragged update pick cells");
    let cols = List.length diffs / rows in
    let bits = eq_bits t diffs in
    Trace.record t.trace (Trace.Equality_bits { protocol = label; bits });
    let tb = Array.of_list bits in
    let us = decrypt_rows t merged and cs = decrypt_rows t cells in
    let n = t.pub.Paillier.n in
    (* old entry j, merged field f: sum_i t_ij * u_if *)
    let sums =
      List.init (cols * fields) (fun x ->
          let j = x / fields and f = x mod fields in
          let acc = ref Nat.zero in
          for i = 0 to rows - 1 do
            if tb.((i * cols) + j) then acc := Modular.add !acc us.(i).(f) ~m:n
          done;
          enc t !acc)
    in
    let ts = List.map (enc_bit t) bits in
    let matched = Array.init rows (fun i -> Array.exists Fun.id (Array.sub tb (i * cols) cols)) in
    (match mode with
    | Wire.Replace ->
      let news =
        List.init rows (fun i -> replace_answer t matched.(i) (Array.append us.(i) cs.(i)))
      in
      Wire.Picked { cts = sums @ ts @ List.concat news; flags = [] }
    | Wire.Eliminate ->
      let kept = Array.fold_left (fun k d -> if d then k else k + 1) 0 matched in
      Trace.record t.trace (Trace.Count { protocol = "SecDupElim"; value = kept });
      Wire.Picked { cts = sums @ ts; flags = Array.to_list matched })
  | Wire.Sort_items { keys; items } ->
    if List.length keys <> List.length items then
      invalid_arg "S2_server: sort key/item count mismatch";
    let decorated =
      Array.of_list
        (List.map2 (fun k it -> (Paillier.decrypt_signed t.sk k, it)) keys items)
    in
    Array.sort (fun (a, _) (b, _) -> Bigint.compare b a) decorated;
    Trace.record t.trace (Trace.Count { protocol = label; value = Array.length decorated });
    Wire.Sorted
      (Array.to_list
         (Array.map (fun (_, it) -> Enc_item.rerandomize_scored t.rng t.pub it) decorated))
  | Wire.Sort_gate { descending; kx; ky; x; y } ->
    let vx = Paillier.decrypt_signed t.sk kx and vy = Paillier.decrypt_signed t.sk ky in
    let cmp = Bigint.compare vx vy in
    Trace.record t.trace (Trace.Comparison { protocol = label; ordering = compare cmp 0 });
    let first, second =
      if (cmp >= 0 && descending) || (cmp < 0 && not descending) then (x, y) else (y, x)
    in
    let first = Enc_item.rerandomize_scored t.rng t.pub first in
    let second = Enc_item.rerandomize_scored t.rng t.pub second in
    Wire.Pair (first, second)
  | Wire.Filter tuples ->
    let n = t.pub.Paillier.n in
    let own = t.own_pub in
    (* decrypt blinded scores; drop zeros; re-blind survivors *)
    let survivors =
      List.filter
        (fun (tp : Wire.tuple) -> not (Nat.is_zero (Paillier.decrypt t.sk tp.Wire.score)))
        tuples
    in
    Trace.record t.trace (Trace.Count { protocol = label; value = List.length survivors });
    (* Pass A draws every random value and noise factor in the original
       per-tuple order but leaves the escrow inverse g^-1 symbolic; all
       the inverses are then computed in one batch (3(n-1) mults + one
       inversion instead of n), and pass B assembles the escrow
       ciphertexts from the pre-drawn noise — byte-identical to inverting
       inline. *)
    let staged =
      List.map
        (fun (tp : Wire.tuple) ->
          let g = Rng.unit_mod t.rng n in
          let gs = Array.map (fun _ -> Rng.nat_below t.rng n) tp.Wire.attrs in
          let score' = Paillier.scalar_mul t.pub tp.Wire.score g in
          let attrs' =
            Array.mapi
              (fun i x -> Paillier.add t.pub x (Paillier.encrypt t.rng t.pub gs.(i)))
              tp.Wire.attrs
          in
          let r_noise = Paillier.noise t.rng own in
          let a_escrow =
            Array.mapi
              (fun i c -> Paillier.add own c (Paillier.encrypt t.rng own gs.(i)))
              tp.Wire.a_escrow
          in
          (g, r_noise, score', attrs', a_escrow, tp.Wire.r_escrow))
        survivors
    in
    let g_invs =
      Modular.inv_many (List.map (fun (g, _, _, _, _, _) -> g) staged) ~m:n
    in
    let reblinded =
      List.map2
        (fun (_, r_noise, score', attrs', a_escrow, r_escrow) g_inv ->
          (* escrow update: append Enc_pk'(g^-1); R~ = R + G *)
          {
            Wire.score = score';
            attrs = attrs';
            r_escrow = Paillier.encrypt_with own ~noise:r_noise g_inv :: r_escrow;
            a_escrow;
          })
        staged g_invs
    in
    let out = Array.of_list reblinded in
    ignore (Rng.shuffle t.rng out);
    Wire.Tuples (Array.to_list out)
  | Wire.Rank_tuples rows ->
    let decorated =
      Array.of_list
        (List.map (fun (k, score, attrs) -> (Paillier.decrypt_signed t.sk k, (score, attrs))) rows)
    in
    Array.sort (fun (a, _) (b, _) -> Bigint.compare b a) decorated;
    Trace.record t.trace (Trace.Count { protocol = label; value = Array.length decorated });
    let rr = Paillier.rerandomize t.rng t.pub in
    Wire.Ranked
      (Array.to_list
         (Array.map
            (fun (_, (score, attrs)) ->
              let score = rr score in
              (score, Array.map rr attrs))
            decorated))
  | Wire.Rank_keys cs ->
    let decorated =
      Array.of_list (List.mapi (fun j c -> (j, Paillier.decrypt t.sk c)) cs)
    in
    Array.sort (fun (_, a) (_, b) -> Nat.compare a b) decorated;
    Trace.record t.trace (Trace.Count { protocol = label; value = Array.length decorated });
    Wire.Indices (Array.to_list (Array.map fst decorated))
  | Wire.Zero_slot cs ->
    (* decrypts every slot up to the first zero, none after - the same
       short-circuit the simulated party used *)
    let slot = ref None in
    List.iteri
      (fun i c ->
        if !slot = None && Nat.is_zero (Paillier.decrypt t.sk c) then slot := Some i)
      cs;
    Wire.Slot !slot

(* ---------------- multiplexed frames ----------------

   A mux frame interleaves ops from many concurrent client queries, each
   tagged with its session. Sessions opened by Mux_open are keyed in
   their own table: [make ~session] starts the responder exactly as the
   query's Inproc context would (a [provision] maker's copy), so each
   session's randomness stream is byte-identical to the in-process
   path. Ops execute strictly in frame order — the scheduler preserved
   each query's program order, and sessions never share rng state, so
   interleaving across sessions cannot perturb any single stream. *)

type mux_state = {
  make : session:int -> t;
  sessions : (int, t) Hashtbl.t;
}

let mux_state ~make = { make; sessions = Hashtbl.create 8 }

let mux_session st id =
  match Hashtbl.find_opt st.sessions id with
  | Some s -> s
  | None -> invalid_arg "S2_server: unknown mux session"

let under col f =
  match col with Some c -> Obs.with_collector c f | None -> f ()

let handle_mux_ops st ops =
  List.map
    (fun (op, col) ->
      under col (fun () ->
          match op with
          | Wire.Mux_open { session } ->
            if Hashtbl.mem st.sessions session then
              invalid_arg "S2_server: duplicate mux session";
            Hashtbl.replace st.sessions session (st.make ~session);
            Wire.Mux_ok
          | Wire.Mux_close { session } ->
            ignore (mux_session st session);
            Hashtbl.remove st.sessions session;
            Wire.Mux_ok
          | Wire.Mux_fork { parent; child; label } ->
            if Hashtbl.mem st.sessions child then
              invalid_arg "S2_server: duplicate mux session";
            Hashtbl.replace st.sessions child (fork (mux_session st parent) ~label);
            Wire.Mux_ok
          | Wire.Mux_join { parent; child } ->
            join (mux_session st child) ~into:(mux_session st parent);
            Hashtbl.remove st.sessions child;
            Wire.Mux_ok
          | Wire.Mux_req { session; label; req } ->
            Wire.Mux_answer (handle (mux_session st session) ~label req)))
    ops

(* ---------------- request loop over a file descriptor ----------------

   One connection derives its keys once, from its Hello, then carries mux
   frames — every query's sessions are opened, forked, joined and closed
   by Mux_* ops in the exact order the client issues them, so both
   parties' randomness streams stay aligned — plus Stats_req scrapes. *)

(* Live scrape: the daemon's registry (startup gauges, per-daemon
   telemetry) plus the connection collector's op counters, folded in as
   [op_*] counter series so one Stats_req frame carries the whole
   picture. *)
let scrape_snapshot registry collector =
  let reg_part =
    match registry with Some r -> Obs.Registry.snapshot r | None -> []
  in
  Obs.Registry.union reg_part
    (Obs.Registry.metrics_counters (Obs.Collector.metrics collector))

let serve_loop ?registry fd keys mux collector =
  let rec loop () =
    match Wire.read_frame fd with
    | None -> ()
    | Some frame ->
      (match Wire.frame_kind frame with
      | Some 'M' ->
        let ops = Wire.decode_mux keys frame in
        (* daemon side: ops count under the ambient connection collector *)
        let replies = handle_mux_ops mux (List.map (fun op -> (op, None)) ops) in
        Wire.write_frame fd (Wire.encode_mux_replies keys replies)
      | Some 'C' -> (
        match Wire.decode_control frame with
        | Wire.Hello _ -> invalid_arg "S2_server: duplicate Hello"
        | Wire.Stats_req ->
          Wire.write_frame fd
            (Wire.encode_control_reply
               (Wire.Stats_resp (scrape_snapshot registry collector))))
      | _ -> invalid_arg "S2_server: unexpected frame kind");
      loop ()
  in
  loop ()

(* A Hello is a few dozen bytes and a first-frame Stats_req fewer: cap
   what an unauthenticated peer can make us allocate. *)
let first_frame_max = 65536

let serve_fd ?on_ready ?registry fd =
  match Wire.read_frame ~max:first_frame_max fd with
  | None -> ()
  | Some first -> (
    match Wire.decode_control first with
    | Wire.Hello h ->
      Obs.set_enabled h.Wire.obs;
      (* the connection derives once: the framing keys, the warmed
         per-key tables and the generator state every session starts
         from *)
      let make, setup_s = Obs.Timer.time (fun () -> provision h) in
      Option.iter (fun f -> f setup_s) on_ready;
      let keys =
        let s = make () in
        Wire.keys_of ~pub:s.pub ~own_pub:s.own_pub
      in
      Wire.write_frame fd (Wire.encode_control_reply Wire.Ok_ctl);
      (* each Mux_open starts the byte-identical twin of the query's
         Inproc responder from a copy *)
      let mux = mux_state ~make:(fun ~session:_ -> make ()) in
      let collector = Obs.Collector.create () in
      Obs.with_collector collector (fun () -> serve_loop ?registry fd keys mux collector)
    | Wire.Stats_req ->
      (* monitoring connection: no key material, no provisioning — answer
         the daemon-level snapshot and hang up *)
      let snap =
        match registry with Some r -> Obs.Registry.snapshot r | None -> []
      in
      Wire.write_frame fd (Wire.encode_control_reply (Wire.Stats_resp snap)))
