(* Sharded index + scatter-gather coordinator tests: shards=1 is
   byte-identical to the unsharded path (results, S2 trace, crypto op
   counters); multi-shard answers are valid top-k per the plaintext NRA
   oracle in every variant, including random partitions (QCheck) and
   forced exhaustion; best-effort answers at a depth cap bracket the exact
   scores; a query's rounds do not depend on the shard count; a QCheck
   configuration matrix (shards x transport x variant x domains x k)
   always halts with a valid top-k; the sharded store round-trips
   byte-identically and every shard-map corruption class is rejected
   with its typed error. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let seed = "shard-identity"
let key_bits = 128
let rand_bits = 96

let rel =
  Synthetic.generate ~seed:"shard-rel" ~name:"shardrel" ~rows:12 ~attrs:3
    (Synthetic.Uniform { lo = 0; hi = 50 })

let all_ids = List.init (Relation.n_rows rel) (fun i -> Relation.object_id rel i)
let oid_of_id id = int_of_string (String.sub id 1 (String.length id - 1))
let provision () = Ctx.provision ~seed ~key_bits ~rand_bits ()

let counter = ref 0

let fresh_dir () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "test_shard_%d_%d" (Unix.getpid ()) !counter)

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

(* ---------------- row partition ---------------- *)

let test_shard_rows () =
  let key = String.make 32 'k' in
  List.iter
    (fun (shards, rows) ->
      let parts = Sectopk.Scheme.shard_rows ~key ~shards ~rows in
      Alcotest.(check int) "shard count" shards (Array.length parts);
      let sizes = Array.map Array.length parts in
      let mn = Array.fold_left min rows sizes and mx = Array.fold_left max 0 sizes in
      Alcotest.(check bool) "sizes differ by at most one" true (mx - mn <= 1);
      let seen = Hashtbl.create rows in
      Array.iter (Array.iter (fun r -> Hashtbl.replace seen r ())) parts;
      Alcotest.(check int) "disjoint cover of the row space" rows (Hashtbl.length seen))
    [ (1, 5); (2, 7); (3, 12); (4, 9); (7, 7) ];
  Alcotest.check_raises "more shards than rows" (Invalid_argument "Scheme.shard_rows: fewer rows than shards")
    (fun () -> ignore (Sectopk.Scheme.shard_rows ~key ~shards:6 ~rows:5))

(* ---------------- shards=1 byte-identity ---------------- *)

type outcome = {
  top : (Nat.t * Nat.t * Nat.t array) list;
  ids : string list;
  halting_depth : int;
  halted : bool;
  trace : Trace.event list;
  ops : (string * int) list;
  spans : (string * int) list;
}

let outcome_of ctx sk key (res : Sectopk.Query.result) =
  {
    top =
      List.map
        (fun (it : Enc_item.scored) ->
          ( (it.worst :> Nat.t),
            (it.best :> Nat.t),
            Array.map (fun (c : Paillier.ciphertext) -> (c :> Nat.t)) it.seen ))
        res.Sectopk.Query.top;
    ids =
      List.map (fun (id, _, _) -> id)
        (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res);
    halting_depth = res.Sectopk.Query.halting_depth;
    halted = res.Sectopk.Query.halted;
    trace = Ctx.trace_events ctx;
    ops =
      List.filter_map
        (fun (op, v) -> if v = 0 then None else Some (Obs.Metrics.name op, v))
        (Obs.Metrics.to_alist (Obs.Collector.metrics ctx.Ctx.obs))
      |> List.sort compare;
    spans =
      List.map (fun (r : Obs.Report.row) -> (r.Obs.Report.rname, r.Obs.Report.calls))
        (Obs.Report.rows ctx.Ctx.obs);
  }

let nat_triple_eq (w1, b1, s1) (w2, b2, s2) =
  Nat.equal w1 w2 && Nat.equal b1 b2
  && Array.length s1 = Array.length s2
  && Array.for_all2 Nat.equal s1 s2

let check_identical name (a : outcome) (b : outcome) =
  Alcotest.(check (list string)) (name ^ ": result ids") a.ids b.ids;
  Alcotest.(check int) (name ^ ": halting depth") a.halting_depth b.halting_depth;
  Alcotest.(check bool) (name ^ ": ciphertexts byte-identical") true
    (List.length a.top = List.length b.top && List.for_all2 nat_triple_eq a.top b.top);
  Alcotest.(check bool) (name ^ ": S2 trace identical") true (a.trace = b.trace);
  Alcotest.(check (list (pair string int))) (name ^ ": crypto op totals") a.ops b.ops;
  Alcotest.(check (list (pair string int))) (name ^ ": span calls") a.spans b.spans

let scoring = Scoring.sum_of [ 0; 1; 2 ]

(* the unsharded reference run, provisioned fresh from the shared seed *)
let run_unsharded options ~k =
  let pub, sk, ctx_rng, data_rng = provision () in
  let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
  let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub rel in
  let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k in
  let res = Sectopk.Query.run ctx er tk options in
  outcome_of ctx sk key res

let run_sharded ?(shards_rel = None) options ~shards ~k =
  let pub, sk, ctx_rng, data_rng = provision () in
  let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
  let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel in
  let ers = match shards_rel with None -> ers | Some f -> f pub ers in
  let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k in
  let res, stats = Shard.run_with_stats ctx ers tk options in
  (outcome_of ctx sk key res, stats)

let test_shards1_identity () =
  with_obs (fun () ->
      let reference = run_unsharded Sectopk.Query.default_options ~k:2 in
      let sharded, stats = run_sharded Sectopk.Query.default_options ~shards:1 ~k:2 in
      Alcotest.(check bool) "trace non-trivial" true (List.length reference.trace > 3);
      check_identical "unsharded vs 1-shard" reference sharded;
      Alcotest.(check int) "1 shard" 1 stats.Shard.shards;
      (* Full variant: a checkpoint at every depth from the first with
         |T| >= k, i.e. every depth (T grows by m = 3 per depth) *)
      Alcotest.(check int) "one checkpoint per depth" sharded.halting_depth
        stats.Shard.merge_rounds;
      (* capped before the first depth: no candidate anywhere, so the
         final refresh makes no call and opens no span; the query is one
         sort of the empty list *)
      let options = { Sectopk.Query.default_options with max_depth = Some 0 } in
      let reference = run_unsharded options ~k:2 in
      let sharded, _ = run_sharded options ~shards:1 ~k:2 in
      check_identical "max_depth 0: unsharded vs 1-shard" reference sharded;
      Alcotest.(check (list (pair string int)))
        "max_depth 0: span calls" [ ("SecQuery", 1); ("EncSort", 1) ] sharded.spans)

(* ---------------- multi-shard vs plaintext oracle ---------------- *)

let check_oracle name ~k (o : outcome) =
  Alcotest.(check int) (name ^ ": k results") k (List.length o.ids);
  Alcotest.(check bool)
    (name ^ ": valid top-k")
    true
    (Nra.valid_answer rel scoring ~k (List.map oid_of_id o.ids))

let test_sharded_oracle () =
  List.iter
    (fun (shards, k, variant, vname) ->
      let options = { Sectopk.Query.default_options with variant } in
      let o, stats = run_sharded options ~shards ~k in
      let name = Printf.sprintf "%d shards, k=%d, %s" shards k vname in
      check_oracle name ~k o;
      Alcotest.(check bool) (name ^ ": halted") true o.halted;
      Alcotest.(check int) (name ^ ": stats shards") shards stats.Shard.shards;
      Alcotest.(check bool) (name ^ ": merged") true (stats.Shard.merge_rounds >= 1))
    [ (2, 2, Sectopk.Query.Full, "full");
      (3, 3, Sectopk.Query.Elim, "elim");
      (4, 2, Sectopk.Query.Elim, "elim");
      (3, 2, Sectopk.Query.Batched 2, "batched") ]

let test_sharded_exhaustion () =
  (* k = n forces every shard to exhaust before the bound test can pass:
     the coordinator must drain all shards and return the whole relation *)
  let k = Relation.n_rows rel in
  let o, _ = run_sharded { Sectopk.Query.default_options with variant = Sectopk.Query.Elim } ~shards:3 ~k in
  check_oracle "exhaustion" ~k o;
  Alcotest.(check bool) "halted at full depth" true o.halted

let test_sharded_max_depth () =
  (* depth cap below any halting point: best-effort merged answer *)
  let options = { Sectopk.Query.default_options with variant = Sectopk.Query.Elim; max_depth = Some 1 } in
  let o, _ = run_sharded options ~shards:3 ~k:2 in
  Alcotest.(check bool) "not halted" false o.halted;
  Alcotest.(check int) "stopped at the cap" 1 o.halting_depth

(* A cap with |T| < k skips the last checkpoint, so the best-effort return
   must refresh the bounds itself: every decrypted [worst, best] brackets
   the exact score. *)
let test_best_effort_bounds () =
  List.iter
    (fun (shards, k, variant, vname) ->
      let pub, sk, ctx_rng, data_rng = provision () in
      let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
      let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel in
      let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k in
      let options = { Sectopk.Query.default_options with variant; max_depth = Some 1 } in
      let res, stats = Shard.run_with_stats ctx ers tk options in
      let name = Printf.sprintf "%d shards, k=%d, %s" shards k vname in
      Alcotest.(check bool) (name ^ ": not halted") false res.Sectopk.Query.halted;
      Alcotest.(check int) (name ^ ": no checkpoint ran") 0 stats.Shard.merge_rounds;
      let reals = Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res in
      Alcotest.(check bool) (name ^ ": 0 < |top| < k") true (reals <> [] && List.length reals < k);
      List.iter
        (fun (id, w, b) ->
          let s = Scoring.score scoring rel (oid_of_id id) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s worst %d <= %d <= best %d" name id w s b)
            true
            (w <= s && s <= b))
        reals)
    [ (1, 4, Sectopk.Query.Elim, "elim");
      (1, 4, Sectopk.Query.Full, "full");
      (3, 10, Sectopk.Query.Elim, "elim") ]

(* the salted PRP placement: encrypting under a salt-forked rng draws a
   fresh placement key, so each case partitions the rows differently, and
   every such partition must merge to a valid top-k *)
let prop_random_partition =
  QCheck.Test.make ~name:"random partitions merge to valid top-k" ~count:4
    QCheck.(pair (int_range 2 4) (int_range 0 1000))
    (fun (shards, salt) ->
      let pub, sk, ctx_rng, data_rng = provision () in
      let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
      let key_rng = Rng.fork data_rng ~label:(Printf.sprintf "qc%d" salt) in
      let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards key_rng pub rel in
      let k = 1 + (salt mod 3) in
      let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k in
      let options = { Sectopk.Query.default_options with variant = Sectopk.Query.Elim } in
      let res = Shard.run ctx ers tk options in
      let ids =
        List.map (fun (id, _, _) -> id)
          (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
      in
      List.length ids = k && Nra.valid_answer rel scoring ~k (List.map oid_of_id ids))

(* ---------------- rounds flat in the shard count ---------------- *)

let variants =
  Sectopk.Query.[ (Full, "full"); (Elim, "elim"); (Batched 2, "batched 2") ]

let rel24 =
  Synthetic.generate ~seed:"shard-rel" ~name:"shardrounds" ~rows:24 ~attrs:3
    (Synthetic.Uniform { lo = 0; hi = 50 })

(* Every phase of a depth sends one frame covering every live shard, so
   a query's channel rounds do not depend on the shard count: at 2, 3
   and 4 shards they equal the 1-shard rounds, for every variant and
   depth cap. A query that halts before its cap scans fewer depths, so
   every run here must stop at the cap (no shard is exhausted by depth 4
   either: 24 rows give each of 4 shards 6). *)
let test_rounds_flat () =
  let rounds ~shards =
    let pub, sk, ctx_rng, data_rng = provision () in
    let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
    let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel24 in
    let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k:2 in
    List.concat_map
      (fun (variant, vname) ->
        List.map
          (fun d ->
            let name = Printf.sprintf "%s, max_depth %d" vname d in
            let before = Channel.rounds_total (Ctx.channel ctx) in
            let options = { Sectopk.Query.default_options with variant; max_depth = Some d } in
            let res = Shard.run ctx ers tk options in
            Alcotest.(check (pair int bool))
              (Printf.sprintf "%d shards, %s: stopped at the cap" shards name)
              (d, false)
              (res.Sectopk.Query.halting_depth, res.Sectopk.Query.halted);
            (name, Channel.rounds_total (Ctx.channel ctx) - before))
          [ 1; 2; 3; 4 ])
      variants
  in
  let one = rounds ~shards:1 in
  List.iter
    (fun shards ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%d shards: rounds = 1-shard rounds" shards)
        one (rounds ~shards))
    [ 2; 3; 4 ]

(* ---------------- configuration matrix ---------------- *)

let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false }

(* [f mode] on a fresh transport of the given kind: a Mux query gets its
   own scheduler over an in-process backend that replays [hello] *)
let with_transport transport f =
  match transport with
  | `Inproc -> f Ctx.Inproc
  | `Loopback -> f Ctx.Loopback
  | `Mux window_us ->
    let st = S2_server.mux_state ~make:(fun ~session:_ -> S2_server.of_hello hello) in
    let sched = Sched.create ~window_us ~backend:(S2_server.handle_mux_ops st) () in
    let session = Sched.open_query sched in
    Fun.protect
      ~finally:(fun () ->
        Sched.close_query sched session;
        Sched.stop sched)
      (fun () -> f (Ctx.Mux (sched, session)))

let transports = [| `Inproc; `Loopback; `Mux 0; `Mux 2_000 |]
let transport_name = function
  | `Inproc -> "inproc"
  | `Loopback -> "loopback"
  | `Mux w -> Printf.sprintf "mux %d us" w

(* shards x transport x variant x domains x k: every answer halts and is
   a valid top-k per the plaintext NRA oracle *)
let prop_config_matrix =
  QCheck.Test.make ~name:"configuration matrix halts with valid top-k" ~count:16
    QCheck.(
      pair
        (triple (int_range 1 3) (int_range 0 (Array.length transports - 1))
           (int_range 0 (List.length variants - 1)))
        (pair (int_range 1 2) (int_range 1 3)))
    (fun ((shards, ti, vi), (domains, k)) ->
      let transport = transports.(ti) and variant, vname = List.nth variants vi in
      let name =
        Printf.sprintf "%d shards, %s, %s, %d domains, k=%d" shards (transport_name transport)
          vname domains k
      in
      let pub, sk, ctx_rng, data_rng = provision () in
      let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel in
      let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k in
      with_transport transport (fun mode ->
          let ctx = Ctx.of_keys ~blind_bits:48 ~domains ~mode ctx_rng pub sk in
          let res = Shard.run ctx ers tk { Sectopk.Query.default_options with variant } in
          let ids =
            List.map (fun (id, _, _) -> id)
              (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
          in
          if
            res.Sectopk.Query.halted
            && List.length ids = k
            && Nra.valid_answer rel scoring ~k (List.map oid_of_id ids)
          then true
          else QCheck.Test.fail_reportf "%s: halted %b, ids [%s]" name res.Sectopk.Query.halted
              (String.concat "; " ids)))

(* ---------------- sharded store ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let flip_byte path pos =
  let s = read_file path in
  let pos = if pos < 0 then String.length s + pos else pos in
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x55));
  write_file path (Bytes.to_string b)

let chop_byte path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s - 1))

let expect_error name pred f =
  match f () with
  | exception Store.Error e ->
    Alcotest.(check bool) (name ^ ": " ^ Store.error_message e) true (pred e)
  | _ -> Alcotest.fail (name ^ ": expected Store.Error")

let is_corrupt = function Store.Corrupt _ -> true | _ -> false
let is_missing = function Store.Missing _ -> true | _ -> false
let is_key_mismatch = function Store.Key_mismatch _ -> true | _ -> false

let build_sharded_dir ~shards =
  let pub, _, _, data_rng = provision () in
  let ers, key = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel in
  let dir = fresh_dir () in
  Store.Sharded.build ~dir pub ers;
  (dir, pub, ers, key)

let test_store_roundtrip () =
  let dir, pub, ers, key = build_sharded_dir ~shards:3 in
  Alcotest.(check bool) "is_sharded" true (Store.Sharded.is_sharded ~dir);
  Alcotest.(check int) "shard_count" 3 (Store.Sharded.shard_count ~dir);
  let sts = Store.Sharded.open_index ~dir pub in
  Alcotest.(check int) "opened all shards" 3 (Array.length sts);
  Array.iteri
    (fun j st ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d rows" j)
        (Sectopk.Scheme.n_rows ers.(j))
        (Store.n_rows st);
      Store.verify st)
    sts;
  (* the store-backed shard set answers exactly like the in-memory one:
     two fresh contexts off the same provisioned rng stream *)
  let run ers0 =
    let pub, sk, ctx_rng, _ = provision () in
    let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
    let tk = Sectopk.Scheme.token key ~m_total:3 scoring ~k:2 in
    let res = Shard.run ctx ers0 tk Sectopk.Query.default_options in
    ( List.map (fun (it : Enc_item.scored) -> ((it.worst :> Nat.t), (it.best :> Nat.t)))
        res.Sectopk.Query.top,
      List.map (fun (id, _, _) -> id)
        (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res) )
  in
  let mem_top, mem_ids = run ers in
  let st_top, st_ids = run (Array.map Store.relation sts) in
  Alcotest.(check (list string)) "ids identical" mem_ids st_ids;
  Alcotest.(check bool) "ciphertexts identical" true
    (List.for_all2
       (fun (w1, b1) (w2, b2) -> Nat.equal w1 w2 && Nat.equal b1 b2)
       mem_top st_top);
  Array.iter Store.close sts;
  (* a plain single store is not mistaken for a sharded one *)
  let dir1 = fresh_dir () in
  Store.build ~dir:dir1 pub ers.(0);
  Alcotest.(check bool) "single store is not sharded" false (Store.Sharded.is_sharded ~dir:dir1)

let test_store_map_corruption () =
  let dir, pub, _, _ = build_sharded_dir ~shards:2 in
  let map = Filename.concat dir Store.Sharded.map_name in
  (* flipped byte anywhere breaks the whole-file checksum *)
  let pristine = read_file map in
  flip_byte map 9;
  expect_error "flipped map byte" is_corrupt (fun () -> Store.Sharded.open_index ~dir pub);
  write_file map pristine;
  chop_byte map;
  expect_error "truncated map" is_corrupt (fun () -> Store.Sharded.open_index ~dir pub);
  write_file map pristine;
  Sys.remove map;
  expect_error "missing map" is_missing (fun () -> Store.Sharded.open_index ~dir pub);
  write_file map pristine;
  ignore (Store.Sharded.open_index ~dir pub |> Array.map Store.close)

let test_store_missing_shard () =
  let dir, pub, _, _ = build_sharded_dir ~shards:2 in
  let shard1 = Filename.concat dir (Store.Sharded.shard_dir_name 1) in
  Array.iter (fun f -> Sys.remove (Filename.concat shard1 f)) (Sys.readdir shard1);
  Unix.rmdir shard1;
  expect_error "missing shard dir" is_missing (fun () -> Store.Sharded.open_index ~dir pub)

let test_store_stale_shard () =
  (* a shard rebuilt out of band no longer matches the published map:
     serving it silently could mix generations, so open must refuse *)
  let dir, pub, ers, _ = build_sharded_dir ~shards:2 in
  Store.build ~dir:(Filename.concat dir (Store.Sharded.shard_dir_name 0)) pub ers.(1);
  expect_error "rebuilt shard" is_corrupt (fun () -> Store.Sharded.open_index ~dir pub)

let test_store_wrong_key () =
  let dir, _, _, _ = build_sharded_dir ~shards:2 in
  let other_pub, _, _, _ = Ctx.provision ~seed:"a-different-owner" ~key_bits ~rand_bits () in
  expect_error "different Paillier modulus" is_key_mismatch (fun () ->
      Store.Sharded.open_index ~dir other_pub)

let suite =
  [ ( "partition",
      [ Alcotest.test_case "shard_rows covers" `Quick test_shard_rows ] );
    ( "coordinator",
      [ Alcotest.test_case "shards=1 byte-identity" `Slow test_shards1_identity;
        Alcotest.test_case "oracle (variants x shards)" `Slow test_sharded_oracle;
        Alcotest.test_case "exhaustion" `Slow test_sharded_exhaustion;
        Alcotest.test_case "max_depth cap" `Slow test_sharded_max_depth;
        Alcotest.test_case "best-effort bounds" `Slow test_best_effort_bounds;
        QCheck_alcotest.to_alcotest ~long:true prop_random_partition;
        Alcotest.test_case "rounds flat in the shard count" `Slow test_rounds_flat;
        QCheck_alcotest.to_alcotest ~long:true prop_config_matrix ] );
    ( "store",
      [ Alcotest.test_case "roundtrip" `Slow test_store_roundtrip;
        Alcotest.test_case "map corruption" `Quick test_store_map_corruption;
        Alcotest.test_case "missing shard" `Quick test_store_missing_shard;
        Alcotest.test_case "stale shard" `Quick test_store_stale_shard;
        Alcotest.test_case "wrong key" `Quick test_store_wrong_key ] ) ]

let () = Alcotest.run "shard" suite
