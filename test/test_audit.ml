(* Leakage audit of S2's potential view for SecRefresh, SecWorst,
   SecDedup, SecUpdate and SecJoin's combine step.

   A recording round-scheduler backend sits in front of
   [S2_server.handle_mux_ops]. The test holds [sk], so for every request
   S2 receives it keeps the label, each element's kind and counts, the
   encoded frame size, and every Paillier ciphertext under the shared key
   that the request or its reply carries, decrypted: everything S2 could
   read, not only what its handler decrypts. The checks:

   (a) shape: a relation and its x10 scaling give SecRefresh, SecWorst,
       SecDedup and SecUpdate requests of identical kinds, counts and
       sizes, under Full and Elim, with 1 and 2 shards;
   (b) masked values: the values SecRefresh, SecWorst, SecUpdate,
       SecDedup's Replace mode and SecJoin's join pick hand S2 to
       decrypt are never below 2^64 and their top-byte histograms agree
       between the two relations; no two masked values of a session lie
       within 2^64 of each other (a repeated or shared mask would);
   (c) bits: whatever the seen bits, the bits S2 decrypts in a Refresh
       request read about half ones;
   (d) linkability: no ciphertext of a SecRefresh request appears in any
       other request or reply of its session, nor (1 + n) * c^-1 of one
       (the complement S2 could compute itself);
   (e) every ciphertext of a pick reply (SecWorst, SecUpdate, SecDedup's
       Replace mode, SecJoin) occurs exactly once in its session: S2
       answers with fresh encryptions and S1 never sends one back as it
       is.

   No request carries a second-layer ciphertext: SecJoin picks in
   Paillier, so there is no RecoverEnc role left to audit. *)

open Bignum
open Crypto
open Dataset
open Topk
open Sectopk
open Proto

let key_bits = 128
let rand_bits = 96
let refresh_label = "SecRefresh"

(* ---------------- what S2 could read ---------------- *)

let scored_cts (it : Enc_item.scored) =
  Array.to_list (Ehl.Ehl_plus.cells it.ehl) @ [ it.worst; it.best ] @ Array.to_list it.seen

let masked_cts (it : Enc_item.masked) =
  Array.to_list (Ehl.Ehl_plus.cells it.ehl) @ [ it.worst ] @ Array.to_list it.seen

(* One request element: its kind, its element counts and every
   ciphertext under the shared key it carries (escrows under S1's own
   key excluded). *)
let describe (req : Wire.request) =
  match req with
  | Wire.Sign_of c -> ("Sign_of", [ 1 ], [ c ])
  | Wire.Dgk_low_bits { bits; z } -> ("Dgk_low_bits", [ bits ], [ z ])
  | Wire.Zero_any l -> ("Zero_any", [ List.length l ], l)
  | Wire.Zero_test c -> ("Zero_test", [ 1 ], [ c ])
  | Wire.Mult (a, b) -> ("Mult", [ 2 ], [ a; b ])
  | Wire.Lsb c -> ("Lsb", [ 1 ], [ c ])
  | Wire.Dedup { diffs; items; _ } ->
    ( "Dedup",
      [ List.length diffs; List.length items ],
      diffs @ List.concat_map (fun (it, _) -> masked_cts it) items )
  | Wire.Worst_pick { diffs; scores } ->
    ("Worst_pick", [ List.length diffs; List.length scores ], diffs @ scores)
  | Wire.Update_pick { diffs; merged; cells; _ } ->
    ( "Update_pick",
      List.length diffs :: List.map List.length merged @ List.map List.length cells,
      diffs @ List.concat merged @ List.concat cells )
  | Wire.Dedup_pick { diffs; items } ->
    ("Dedup_pick", List.length diffs :: List.map List.length items, diffs @ List.concat items)
  | Wire.Sort_items { keys; items } ->
    ("Sort_items", [ List.length keys ], keys @ List.concat_map scored_cts items)
  | Wire.Sort_gate { kx; ky; x; y; _ } ->
    ("Sort_gate", [ 2 ], [ kx; ky ] @ scored_cts x @ scored_cts y)
  | Wire.Filter l ->
    ( "Filter",
      [ List.length l ],
      List.concat_map (fun (t : Wire.tuple) -> t.score :: Array.to_list t.attrs) l )
  | Wire.Rank_tuples l ->
    ( "Rank_tuples",
      [ List.length l ],
      List.concat_map (fun (k, s, a) -> k :: s :: Array.to_list a) l )
  | Wire.Rank_keys l -> ("Rank_keys", [ List.length l ], l)
  | Wire.Zero_slot l -> ("Zero_slot", [ List.length l ], l)
  | Wire.Refresh { bottoms; bits } ->
    ("Refresh", [ List.length bottoms; List.length bits ], bottoms @ bits)
  | Wire.Join_pick { diffs; fields } ->
    ( "Join_pick",
      List.length diffs :: List.map List.length fields,
      diffs @ List.concat fields )
  | Wire.Batch _ -> invalid_arg "describe: batches are flattened first"

let rec reply_cts (resp : Wire.response) =
  match resp with
  | Wire.Sign _ | Wire.Bit _ | Wire.Indices _ | Wire.Slot _ -> []
  | Wire.Ct c -> [ c ]
  | Wire.Cts l | Wire.Picked { cts = l; _ } -> l
  | Wire.Dgk_bits { bit_cts; _ } -> bit_cts
  | Wire.Items l -> List.concat_map (fun (it, _) -> masked_cts it) l
  | Wire.Sorted l -> List.concat_map scored_cts l
  | Wire.Pair (x, y) -> scored_cts x @ scored_cts y
  | Wire.Tuples l -> List.concat_map (fun (t : Wire.tuple) -> t.score :: Array.to_list t.attrs) l
  | Wire.Ranked l -> List.concat_map (fun (s, a) -> s :: Array.to_list a) l
  | Wire.Batch_resp l -> List.concat_map reply_cts l

(* A ciphertext and the plaintext S2 would read from it. *)
type seen_ct = { ct : Nat.t; plain : Nat.t }

type element = { kind : string; counts : int list; req : seen_ct list; reply : seen_ct list }
type record = { session : int; label : string; bytes : int; elements : element list }

type recorder = { sched : Sched.t; records : record list ref }

(* The recording backend: each [Mux_req] is answered by the real
   responder, then recorded with its reply. Only the shipper domain
   writes [records]; readers wait for [Sched.stop]. *)
let recorder ~sk ~keys hello =
  let start = S2_server.provision hello in
  let st = S2_server.mux_state ~make:(fun ~session:_ -> start ()) in
  let records = ref [] in
  let open_ c = { ct = Paillier.to_nat c; plain = Paillier.decrypt sk c } in
  let backend ops =
    let replies = S2_server.handle_mux_ops st ops in
    List.iter2
      (fun (op, _) reply ->
        match (op, reply) with
        | Wire.Mux_req { session; label; req }, Wire.Mux_answer resp ->
          let reqs, resps =
            match (req, resp) with
            | Wire.Batch reqs, Wire.Batch_resp resps -> (reqs, resps)
            | _ -> ([ req ], [ resp ])
          in
          let elements =
            List.map2
              (fun req resp ->
                let kind, counts, cts = describe req in
                { kind; counts; req = List.map open_ cts; reply = List.map open_ (reply_cts resp) })
              reqs resps
          in
          let bytes = String.length (Wire.encode_request keys ~session ~label req) in
          records := { session; label; bytes; elements } :: !records
        | _ -> ())
      ops replies;
    replies
  in
  { sched = Sched.create ~window_us:0 ~backend (); records }

(* ---------------- sessions ---------------- *)

(* the pair test_sectopk's isomorphic-DB check uses *)
let rel_a = Relation.create ~name:"a" [| [| 9; 7 |]; [| 6; 5 |]; [| 3; 2 |] |]
let rel_b = Relation.create ~name:"b" [| [| 90; 70 |]; [| 60; 50 |]; [| 30; 20 |] |]
let scoring = Scoring.sum_of [ 0; 1 ]

type session = { n : Nat.t; records : record list; answer_ok : bool }

(* One query through a fresh recorder, provisioned from [seed]. *)
let run_session ~seed ~variant ~shards rel =
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let derived = Ctx.derive ctx_rng pub sk in
  let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
  let r = recorder ~sk ~keys:(Ctx.keys derived) hello in
  let id = Sched.open_query r.sched in
  let ctx = Ctx.of_derived ~blind_bits:48 ~mode:(Ctx.Mux (r.sched, id)) derived in
  let ers, key = Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel in
  let tk = Scheme.token key ~m_total:2 scoring ~k:2 in
  let res, _ = Query.run_sharded ctx ers tk { Query.default_options with variant } in
  Sched.close_query r.sched id;
  Sched.stop r.sched;
  let ids = List.init (Relation.n_rows rel) (Relation.object_id rel) in
  let answer =
    List.map
      (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1)))
      (Client.real_results ~sk ctx key ~ids res)
  in
  {
    n = pub.Paillier.n;
    records = List.rev !(r.records);
    answer_ok = Nra.valid_answer rel scoring ~k:2 answer;
  }

let records_of labels s = List.filter (fun r -> List.mem r.label labels) s.records
let refresh_records = records_of [ refresh_label ]

let configs =
  [ ("Full, 1 shard", Query.Full, 1);
    ("Full, 2 shards", Query.Full, 2);
    ("Elim, 1 shard", Query.Elim, 1);
    ("Elim, 2 shards", Query.Elim, 2) ]

(* ---------------- (a) shape ---------------- *)

let shape label s =
  List.map
    (fun r -> (r.bytes, List.map (fun e -> (e.kind, e.counts)) r.elements))
    (records_of [ label ] s)

(* Every protocol in [labels] sends the same requests for [rel_a] and
   [rel_b]; each of [ran] sends at least one. *)
let check_shapes ~labels ~ran =
  List.iter
    (fun (name, variant, shards) ->
      let run rel = run_session ~seed:"test_audit shape" ~variant ~shards rel in
      let a = run rel_a and b = run rel_b in
      Alcotest.(check bool) (name ^ ": answers valid") true (a.answer_ok && b.answer_ok);
      List.iter
        (fun label -> Alcotest.(check bool) (name ^ ": " ^ label ^ " ran") true (shape label a <> []))
        ran;
      List.iter
        (fun label ->
          Alcotest.(check (list (pair int (list (pair string (list int))))))
            (Printf.sprintf "%s: same %s kinds, counts and sizes" name label)
            (shape label a) (shape label b))
        labels)
    configs

let test_shape () = check_shapes ~labels:[ refresh_label ] ~ran:[ refresh_label ]

let pick_labels = [ "SecWorst"; "SecDedup"; "SecUpdate" ]
let test_pick_shape () = check_shapes ~labels:pick_labels ~ran:pick_labels

(* ---------------- (b) masked values ---------------- *)

(* A Refresh element's masked bottoms b_l + rho_l and its bits, as S2
   reads them. *)
let refresh_parts e =
  match (e.kind, e.counts) with
  | "Refresh", [ m; _ ] ->
    let plain = List.map (fun c -> c.plain) e.req in
    (List.filteri (fun i _ -> i < m) plain, List.filteri (fun i _ -> i >= m) plain)
  | _ -> ([], [])

(* The values SecRefresh makes S2 decrypt that are not bits. *)
let refresh_masked s =
  List.concat_map
    (fun r -> List.concat_map (fun e -> fst (refresh_parts e)) r.elements)
    (refresh_records s)

(* SecJoin's combine step through a fresh recorder: a 4 x 3 join whose
   12 pairs each pick a score and four carried attributes. [scale]
   multiplies every value, so the two relations share their equality
   pattern. *)
let run_join_session ~seed ~scale =
  let rel name rows = Relation.create ~name (Array.map (Array.map (( * ) scale)) rows) in
  let r1 = rel "r1" [| [| 1; 10 |]; [| 2; 20 |]; [| 3; 30 |]; [| 2; 5 |] |] in
  let r2 = rel "r2" [| [| 2; 100 |]; [| 3; 50 |]; [| 9; 7 |] |] in
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let derived = Ctx.derive ctx_rng pub sk in
  let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
  let r = recorder ~sk ~keys:(Ctx.keys derived) hello in
  let id = Sched.open_query r.sched in
  let ctx = Ctx.of_derived ~blind_bits:48 ~mode:(Ctx.Mux (r.sched, id)) derived in
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 data_rng pub r1 r2 in
  let tk = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k:2 in
  ignore (Join.Sec_join.combine ctx e1 e2 tk);
  Sched.close_query r.sched id;
  Sched.stop r.sched;
  { n = pub.Paillier.n; records = List.rev !(r.records); answer_ok = true }

let bins = 16

(* The top byte of [v] as a fraction of [n], grouped into 16 bins of 16
   byte values so each bin expects at least five of 200 samples. *)
let bin_of n v = Nat.to_int (Nat.div (Nat.shift_left v 8) n) / (256 / bins)

(* Two-sample chi-square statistic over histograms of possibly
   different totals. *)
let chi2 a b =
  let ta = float (Array.fold_left ( + ) 0 a) and tb = float (Array.fold_left ( + ) 0 b) in
  let ka = sqrt (tb /. ta) and kb = sqrt (ta /. tb) in
  let s = ref 0. in
  Array.iteri
    (fun i ai ->
      let bi = b.(i) in
      if ai + bi > 0 then begin
        let d = (ka *. float ai) -. (kb *. float bi) in
        s := !s +. (d *. d /. float (ai + bi))
      end)
    a;
  !s

(* the p = 0.001 point of chi-square at 15 degrees of freedom, the most
   16 bins allow *)
let chi2_bound = 37.70
let min_samples = 200
let two64 = Nat.shift_left Nat.one 64

(* Values of one role, tagged with their session's n, from sessions
   [session 0], [session 1], ... until there are at least [min_samples]
   or [max_sessions] rounds have run: a role no session produces comes
   back short and fails its test instead of looping. *)
let max_sessions = 12

let collect role session =
  let rec go i acc =
    if List.length acc >= min_samples || i = max_sessions then acc
    else
      go (i + 1)
        (acc @ List.concat_map (fun s -> List.map (fun v -> (s.n, v)) (role s)) (session i))
  in
  go 0 []

(* one query per configuration at seed [i], run once and shared by
   every role; the seed names the configuration, so no two sessions
   draw the same stream *)
let query_sessions =
  let memo = Hashtbl.create 16 in
  fun rel i ->
    let key = (Relation.name rel, i) in
    match Hashtbl.find_opt memo key with
    | Some sessions -> sessions
    | None ->
      let sessions =
        List.map
          (fun (name, variant, shards) ->
            run_session
              ~seed:(Printf.sprintf "test_audit %s %d %s" (Relation.name rel) i name)
              ~variant ~shards rel)
          configs
      in
      Hashtbl.replace memo key sessions;
      sessions

let join_session scale i =
  [ run_join_session ~seed:(Printf.sprintf "test_audit join %d %d" scale i) ~scale ]

let refresh_samples =
  lazy
    ( collect refresh_masked (query_sessions rel_a),
      collect refresh_masked (query_sessions rel_b) )

let check_uniform role a b =
  let hist vs =
    let h = Array.make bins 0 in
    List.iter (fun (n, v) -> h.(bin_of n v) <- h.(bin_of n v) + 1) vs;
    h
  in
  List.iter
    (fun (rel, vs) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%s): at least %d values" role rel min_samples)
        true
        (List.length vs >= min_samples);
      Alcotest.(check int)
        (Printf.sprintf "%s (%s): values below 2^64" role rel)
        0
        (List.length (List.filter (fun (_, v) -> Nat.compare v two64 < 0) vs)))
    [ ("a", a); ("b", b) ];
  let x = chi2 (hist a) (hist b) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: top-byte histograms agree (chi2 %.1f <= %.2f)" role x chi2_bound)
    true (x <= chi2_bound)

let test_masked () =
  let ma, mb = Lazy.force refresh_samples in
  check_uniform "SecRefresh masked values" ma mb

(* A pick request carries its diffs first, then the values it masked:
   [counts] starts with the diff count for every pick kind. *)
let pick_kinds = [ "Worst_pick"; "Update_pick"; "Dedup_pick"; "Join_pick" ]

let pick_masked kind s =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun e ->
          if e.kind = kind then
            List.filteri (fun i _ -> i >= List.hd e.counts) (List.map (fun c -> c.plain) e.req)
          else [])
        r.elements)
    s.records

let test_pick_masked kind () =
  let a = collect (pick_masked kind) (query_sessions rel_a)
  and b = collect (pick_masked kind) (query_sessions rel_b) in
  check_uniform (kind ^ " masked values") a b

let test_join_masked () =
  let kind = "Join_pick" in
  check_uniform (kind ^ " masked values")
    (collect (pick_masked kind) (join_session 1))
    (collect (pick_masked kind) (join_session 10))

(* Every masked value S2 decrypts in one session, the SecRefresh bottoms
   and every pick's: sorted round Z_n, no two neighbours lie within 2^64
   of each other. A mask reused across values shows as a difference of
   scores, a repeated value as 0. *)
let test_no_close_masks () =
  List.iter
    (fun (name, sessions) ->
      List.iteri
        (fun i s ->
          let vs =
            List.sort Nat.compare
              (refresh_masked s @ List.concat_map (fun k -> pick_masked k s) pick_kinds)
          in
          let close a b = Nat.compare (Modular.sub b a ~m:s.n) two64 < 0 in
          let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
          let wrap = match vs with [] | [ _ ] -> [] | first :: _ -> [ (List.nth vs (List.length vs - 1), first) ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s, session %d: masked values" name i)
            true (List.length vs >= 2);
          Alcotest.(check int)
            (Printf.sprintf "%s, session %d: pairs within 2^64" name i)
            0
            (List.length (List.filter (fun (a, b) -> close a b) (pairs vs @ wrap))))
        sessions)
    [ ("a", query_sessions rel_a 0);
      ("b", query_sessions rel_b 0);
      ("join", join_session 1 0);
      ("join x10", join_session 10 0) ]

(* ---------------- (c) bits ---------------- *)

(* Sec_refresh.run_many driven directly: four blocks of 25 items over
   m = 4 lists whose seen bits are all [s]. The refreshed bounds must be
   right, and the 400 bits S2 decrypts must read 40-60% ones. *)
let test_bits () =
  List.iter
    (fun s ->
      let seed = Printf.sprintf "test_audit bits %d" s in
      let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
      let derived = Ctx.derive ctx_rng pub sk in
      let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false } in
      let r = recorder ~sk ~keys:(Ctx.keys derived) hello in
      let id = Sched.open_query r.sched in
      let ctx = Ctx.of_derived ~blind_bits:48 ~mode:(Ctx.Mux (r.sched, id)) derived in
      let enc v = Paillier.encrypt data_rng pub (Nat.of_int v) in
      let keys = Prf.gen_keys data_rng 4 in
      let m = 4 in
      let blocks =
        List.init 4 (fun b ->
            ( List.init 25 (fun i ->
                  {
                    Enc_item.ehl =
                      Ehl.Ehl_plus.encode data_rng pub ~keys (Printf.sprintf "o%d.%d" b i);
                    worst = enc i;
                    best = enc 0;
                    seen = Array.init m (fun _ -> enc s);
                  }),
              Array.init m (fun l -> enc (10 * (l + 1))) ))
      in
      let out = Sec_refresh.run_many ctx blocks in
      Sched.close_query r.sched id;
      Sched.stop r.sched;
      let unseen = if s = 0 then 100 else 0 in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "seen %d: B = W + unseen bottoms" s)
        (List.init 4 (fun _ -> List.init 25 (fun i -> i + unseen)))
        (List.map
           (List.map (fun (it : Enc_item.scored) -> Nat.to_int (Paillier.decrypt sk it.best)))
           out);
      let bits =
        List.concat_map
          (fun r -> List.concat_map (fun e -> snd (refresh_parts e)) r.elements)
          (List.filter (fun r -> r.label = refresh_label) !(r.records))
      in
      let ones = List.length (List.filter Nat.is_one bits) in
      Alcotest.(check int)
        (Printf.sprintf "seen %d: S2 decrypts 400 bits" s)
        400 (List.length bits);
      Alcotest.(check bool)
        (Printf.sprintf "seen %d: %d of 400 bits read 1 (40-60%% allowed)" s ones)
        true
        (ones >= 160 && ones <= 240))
    [ 1; 0 ]

(* ---------------- (d) linkability ---------------- *)

(* how often a ciphertext occurs in the session's requests and replies *)
let occurrences s =
  let count = Hashtbl.create 256 in
  List.iter
    (fun r ->
      List.iter
        (fun e ->
          List.iter
            (fun c ->
              let k = Nat.to_string c.ct in
              Hashtbl.replace count k (1 + Option.value ~default:0 (Hashtbl.find_opt count k)))
            (e.req @ e.reply))
        r.elements)
    s.records;
  fun c -> Option.value ~default:0 (Hashtbl.find_opt count (Nat.to_string c))

(* Every SecRefresh request ciphertext occurs once in its session's
   requests and replies, and its complement (1 + n) * c^-1 mod n^2 (what
   S2 computes from a ciphertext it knows to get the encryption of one
   minus its plaintext) never occurs. *)
let check_unlinkable name s =
  let n2 = Nat.mul s.n s.n in
  let occurrences = occurrences s in
  let refresh_cts =
    List.concat_map (fun r -> List.concat_map (fun e -> List.map (fun c -> c.ct) e.req) r.elements)
      (refresh_records s)
  in
  Alcotest.(check bool) (name ^ ": SecRefresh sent ciphertexts") true (refresh_cts <> []);
  List.iter
    (fun c ->
      Alcotest.(check int) (name ^ ": a SecRefresh ciphertext occurs once") 1 (occurrences c);
      let complement = Modular.mul (Nat.succ s.n) (Modular.inv c ~m:n2) ~m:n2 in
      Alcotest.(check int) (name ^ ": its complement never occurs") 0 (occurrences complement))
    refresh_cts

(* Every ciphertext of a pick reply occurs once in its session's
   requests and replies. *)
let check_fresh_replies name s =
  let occurrences = occurrences s in
  let replies =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun e -> if List.mem e.kind pick_kinds then List.map (fun c -> c.ct) e.reply else [])
          r.elements)
      s.records
  in
  Alcotest.(check bool) (name ^ ": picks answered") true (replies <> []);
  List.iter
    (fun c ->
      Alcotest.(check int) (name ^ ": a pick reply ciphertext occurs once") 1 (occurrences c))
    replies

let test_fresh_replies () =
  List.iter
    (fun (name, variant, shards) ->
      List.iter
        (fun rel ->
          check_fresh_replies
            (Printf.sprintf "%s, %s" name (Relation.name rel))
            (run_session ~seed:"test_audit links" ~variant ~shards rel))
        [ rel_a; rel_b ])
    configs;
  List.iter
    (fun scale ->
      List.iter (check_fresh_replies (Printf.sprintf "SecJoin x%d" scale)) (join_session scale 0))
    [ 1; 10 ]

let test_unlinkable () =
  List.iter
    (fun (name, variant, shards) ->
      List.iter
        (fun rel ->
          check_unlinkable
            (Printf.sprintf "%s, %s" name (Relation.name rel))
            (run_session ~seed:"test_audit links" ~variant ~shards rel))
        [ rel_a; rel_b ])
    configs

let () =
  Alcotest.run "audit"
    [ ( "sec-refresh-view",
        [ Alcotest.test_case "(a) same shape for a relation and its x10 scaling" `Quick test_shape;
          Alcotest.test_case "(b) masked values uniform" `Quick test_masked;
          Alcotest.test_case "(c) decrypted bits are coin flips" `Quick test_bits;
          Alcotest.test_case "(d) no ciphertext links to another message" `Quick test_unlinkable
        ] );
      ( "pick-view",
        [ Alcotest.test_case "(a) SecWorst, SecDedup and SecUpdate keep their shape" `Quick
            test_pick_shape;
          Alcotest.test_case "(b) SecWorst masked scores uniform" `Quick
            (test_pick_masked "Worst_pick");
          Alcotest.test_case "(b) SecUpdate masked fields uniform" `Quick
            (test_pick_masked "Update_pick");
          Alcotest.test_case "(b) SecDedup masked fields uniform" `Quick
            (test_pick_masked "Dedup_pick");
          Alcotest.test_case "(b) SecJoin masked fields uniform" `Quick test_join_masked;
          Alcotest.test_case "(b) no two masked values of a session are close" `Quick
            test_no_close_masks;
          Alcotest.test_case "(e) every pick reply ciphertext occurs once" `Quick
            test_fresh_replies
        ] ) ]
