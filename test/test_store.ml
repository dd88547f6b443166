(* lib/store acceptance tests: build -> open round-trips byte-identically
   with the in-memory path (results, S2 trace, crypto op-counters),
   publication is crash-safe (the MANIFEST rename is the only commit
   point), every corruption class is rejected with its typed error, the
   LRU block cache is lazy and counted, and CSV ingestion accepts
   UCI-shaped files while rejecting malformed rows with line numbers. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let seed = "store-identity"
let key_bits = 128
let rand_bits = 96

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

(* One deterministic encryption shared by every test: [Store.build] only
   serializes, so each test gets its own directory but the same bytes. *)
let pub, _sk, _ctx_rng0, data_rng0 = Ctx.provision ~seed ~key_bits ~rand_bits ()
let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng0 pub fig3

let fresh_dir () = Tmp_dirs.fresh "test_store"

let build_store ?block_records () =
  let dir = fresh_dir () in
  Store.build ?block_records ~dir pub er;
  dir

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* xor one byte; negative [pos] counts from the end *)
let flip_byte path pos =
  let s = read_file path in
  let pos = if pos < 0 then String.length s + pos else pos in
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  write_file path (Bytes.to_string b)

let chop_byte path =
  let s = read_file path in
  write_file path (String.sub s 0 (String.length s - 1))

let expect_error name pred f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Store.Error, got a value")
  | exception Store.Error e ->
    Alcotest.(check bool) (name ^ ": " ^ Store.error_message e) true (pred e)

let is_corrupt = function Store.Corrupt _ -> true | _ -> false
let is_truncated = function Store.Truncated _ -> true | _ -> false

(* ---------------- round-trip identity ---------------- *)

type outcome = {
  top : (Nat.t * Nat.t * Nat.t array) list;
  ids : string list;
  halting_depth : int;
  trace : Trace.event list;
  ops : (string * int) list;  (** crypto op counters only — store counters excluded *)
}

let store_counter = function
  | "store_read_bytes" | "cache_hit" | "cache_miss" -> true
  | _ -> false

(* run the seeded Fig. 3 query over a given relation value; provisioning
   is replayed fresh so the blinding stream is identical per run *)
let run_on relation : outcome =
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
  let tk = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let res = Sectopk.Query.run ctx relation tk Sectopk.Query.default_options in
  let all_ids = List.init (Relation.n_rows fig3) (fun i -> Relation.object_id fig3 i) in
  let ids =
    List.map (fun (id, _, _) -> id) (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
  in
  {
    top =
      List.map
        (fun (it : Enc_item.scored) ->
          ( (it.worst :> Nat.t),
            (it.best :> Nat.t),
            Array.map (fun (c : Paillier.ciphertext) -> (c :> Nat.t)) it.seen ))
        res.Sectopk.Query.top;
    ids;
    halting_depth = res.Sectopk.Query.halting_depth;
    trace = Ctx.trace_events ctx;
    ops =
      List.filter_map
        (fun (op, v) ->
          let name = Obs.Metrics.name op in
          if store_counter name || v = 0 then None else Some (name, v))
        (Obs.Metrics.to_alist (Obs.Collector.metrics ctx.Ctx.obs))
      |> List.sort compare;
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
  Alcotest.(check (list (pair string int))) (name ^ ": crypto op totals") a.ops b.ops

let test_round_trip () =
  with_obs (fun () ->
      let dir = build_store ~block_records:2 () in
      let st = Store.open_index ~dir pub in
      Alcotest.(check int) "rows" 5 (Store.n_rows st);
      Alcotest.(check int) "lists" 3 (Store.n_attrs st);
      Alcotest.(check int) "cells" 4 (Store.cells st);
      Alcotest.(check int) "generation" 1 (Store.generation st);
      let memory = run_on er in
      let stored = run_on (Store.relation st) in
      Alcotest.(check bool) "trace non-trivial" true (List.length memory.trace > 3);
      check_identical "memory vs store" memory stored;
      Store.close st)

(* every (list, depth) cell, not just the ones SecQuery touches, and
   every read outside the index or after [close] refused *)
let test_every_entry_identical () =
  let dir = build_store ~block_records:3 () in
  let st = Store.open_index ~dir pub in
  for list = 0 to 2 do
    for depth = 0 to 4 do
      let a = Sectopk.Scheme.entry er ~list ~depth in
      let b = Store.entry st ~list ~depth in
      Alcotest.(check bool)
        (Printf.sprintf "entry (%d,%d)" list depth)
        true
        (Nat.equal (a.Enc_item.score :> Nat.t) (b.Enc_item.score :> Nat.t)
        && Array.for_all2
             (fun (x : Paillier.ciphertext) (y : Paillier.ciphertext) ->
               Nat.equal (x :> Nat.t) (y :> Nat.t))
             (Ehl.Ehl_plus.cells a.Enc_item.ehl)
             (Ehl.Ehl_plus.cells b.Enc_item.ehl))
    done
  done;
  let refused name ~list ~depth =
    match Store.entry st ~list ~depth with
    | _ -> Alcotest.failf "%s: read (%d,%d) returned an entry" name list depth
    | exception Invalid_argument _ -> ()
  in
  refused "list -1" ~list:(-1) ~depth:0;
  refused "list m" ~list:3 ~depth:0;
  refused "depth -1" ~list:0 ~depth:(-1);
  refused "depth n" ~list:0 ~depth:5;
  Store.close st;
  refused "after close" ~list:0 ~depth:0

(* ---------------- crash safety ---------------- *)

let test_crash_leaves_previous_generation () =
  let dir = build_store () in
  (* a build that died mid-write: stray next-generation files and an
     unrenamed manifest temp must not affect the published generation *)
  write_file (Filename.concat dir "MANIFEST.tmp") "partial garbage";
  write_file (Filename.concat dir "seg_2_0.stk") "STKS half-written";
  let st = Store.open_index ~dir pub in
  Alcotest.(check int) "old generation still published" 1 (Store.generation st);
  Store.verify st;
  Store.close st;
  (* a retried build supersedes the stray files cleanly *)
  Store.build ~dir pub er;
  let st = Store.open_index ~dir pub in
  Alcotest.(check int) "rebuild bumps generation" 2 (Store.generation st);
  Store.verify st;
  Store.close st

(* ---------------- typed rejection of damaged stores ---------------- *)

let test_corrupt_manifest () =
  let dir = build_store () in
  flip_byte (Filename.concat dir "MANIFEST") 20;
  expect_error "flipped manifest byte" is_corrupt (fun () -> Store.open_index ~dir pub)

let test_bad_magic () =
  let dir = build_store () in
  let path = Filename.concat dir "MANIFEST" in
  let s = read_file path in
  write_file path ("XXXX" ^ String.sub s 4 (String.length s - 4));
  expect_error "wrong magic"
    (function Store.Bad_magic _ -> true | _ -> false)
    (fun () -> Store.open_index ~dir pub)

let test_bad_version () =
  let dir = build_store () in
  flip_byte (Filename.concat dir "MANIFEST") 4;
  expect_error "wrong version"
    (function Store.Bad_version _ -> true | _ -> false)
    (fun () -> Store.open_index ~dir pub)

let test_truncated_manifest () =
  let dir = build_store () in
  chop_byte (Filename.concat dir "MANIFEST");
  (* losing the final byte breaks the whole-file checksum *)
  expect_error "truncated manifest"
    (fun e -> is_corrupt e || is_truncated e)
    (fun () -> Store.open_index ~dir pub)

let test_missing_segment () =
  let dir = build_store () in
  Sys.remove (Filename.concat dir "seg_1_1.stk");
  expect_error "missing segment"
    (function Store.Missing _ -> true | _ -> false)
    (fun () -> Store.open_index ~dir pub)

let test_truncated_segment () =
  let dir = build_store () in
  chop_byte (Filename.concat dir "seg_1_0.stk");
  expect_error "truncated segment" is_truncated (fun () -> Store.open_index ~dir pub)

let test_corrupt_segment_header () =
  let dir = build_store () in
  (* a flip inside the header disagrees with the CRC recorded in the
     manifest, so it is caught at open time *)
  flip_byte (Filename.concat dir "seg_1_0.stk") 6;
  expect_error "flipped segment header byte" is_corrupt (fun () -> Store.open_index ~dir pub)

let test_corrupt_segment_body () =
  let dir = build_store ~block_records:2 () in
  (* a flip in the record area passes the open-time header checks and is
     caught by the per-block CRC when the block is first loaded *)
  flip_byte (Filename.concat dir "seg_1_0.stk") (-1);
  let st = Store.open_index ~dir pub in
  expect_error "lazy load of damaged block" is_corrupt (fun () ->
      Store.entry st ~list:0 ~depth:4);
  (* undamaged lists still serve *)
  ignore (Store.entry st ~list:1 ~depth:0);
  expect_error "verify sweeps every block" is_corrupt (fun () -> Store.verify st);
  Store.close st

let test_key_mismatch () =
  let dir = build_store () in
  let other_pub, _, _, _ = Ctx.provision ~seed:"a-different-deployment" ~key_bits ~rand_bits () in
  expect_error "foreign key"
    (function Store.Key_mismatch _ -> true | _ -> false)
    (fun () -> Store.open_index ~dir other_pub)

let test_missing_dir () =
  expect_error "absent directory"
    (function Store.Missing _ -> true | _ -> false)
    (fun () -> Store.open_index ~dir:(fresh_dir ()) pub)

(* A failed open closes every descriptor it opened: segments already
   open when the last segment fails, and the segments of a failing shard
   under a sharded open. *)
let test_failed_open_closes_fds () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let bad_last_seg = build_store () in
  flip_byte (Filename.concat bad_last_seg "seg_1_2.stk") 0;
  let no_last_seg = build_store () in
  Sys.remove (Filename.concat no_last_seg "seg_1_2.stk");
  let sharded = fresh_dir () in
  let ers, _ = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:2 (Rng.create ~seed:"fds") pub fig3 in
  Store.Sharded.build ~dir:sharded pub ers;
  flip_byte (Filename.concat sharded "shard_1/seg_1_2.stk") 0;
  let before = open_fds () in
  for _ = 1 to 10 do
    expect_error "bad last segment magic" (function Store.Bad_magic _ -> true | _ -> false)
      (fun () -> Store.open_index ~dir:bad_last_seg pub);
    expect_error "last segment missing" (function Store.Missing _ -> true | _ -> false) (fun () ->
        Store.open_index ~dir:no_last_seg pub);
    expect_error "second shard's last segment" (function Store.Bad_magic _ -> true | _ -> false)
      (fun () -> Store.Sharded.open_index ~dir:sharded pub)
  done;
  Alcotest.(check int) "open descriptors after 30 failed opens" before (open_fds ())

(* ---------------- cache behaviour ---------------- *)

let counter_of c name =
  List.fold_left
    (fun acc (op, v) -> if Obs.Metrics.name op = name then acc + v else acc)
    0
    (Obs.Metrics.to_alist (Obs.Collector.metrics c))

let test_cache_counters () =
  with_obs (fun () ->
      let dir = build_store ~block_records:1 () in
      let st = Store.open_index ~cache_blocks:2 ~dir pub in
      let c = Obs.Collector.create () in
      Obs.with_collector c (fun () ->
          ignore (Store.entry st ~list:0 ~depth:0);
          let cold = counter_of c "store_read_bytes" in
          Alcotest.(check int) "first read misses" 1 (counter_of c "cache_miss");
          Alcotest.(check bool) "read counted" true (cold > 0);
          (* a depth-0 prefix read must not touch the rest of the store *)
          Alcotest.(check bool) "prefix read is lazy" true (cold * 3 < Store.disk_bytes st);
          ignore (Store.entry st ~list:0 ~depth:0);
          Alcotest.(check int) "warm read hits" 1 (counter_of c "cache_hit");
          Alcotest.(check int) "warm read reads nothing" cold (counter_of c "store_read_bytes");
          (* touring more blocks than the cache holds evicts and re-misses *)
          for d = 0 to 4 do
            ignore (Store.entry st ~list:0 ~depth:d)
          done;
          ignore (Store.entry st ~list:0 ~depth:0);
          Alcotest.(check bool) "eviction causes a re-miss" true (counter_of c "cache_miss" > 5));
      Store.close st)

(* ---------------- golden bytes ---------------- *)

(* Every file under [dir] as a path relative to it, sorted. *)
let rec files_under dir rel =
  Sys.readdir (Filename.concat dir rel)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let rel = Filename.concat rel name in
         if Sys.is_directory (Filename.concat dir rel) then files_under dir rel else [ rel ])

(* A SHA-256 over the name and bytes of every file a single store and a
   2-shard store publish, so any byte that moves in the MANIFEST, segment
   or SHARDMAP format fails here (mirrors test_wire's frame digest). *)
let golden_files_sha256 = "4c01efb109bbb71b7c5477a43de57ba42f75b7c48d5537f3ba82701e073dc37c"

let test_golden_files () =
  let h = Sha256.init () in
  let add s =
    Sha256.update h (Printf.sprintf "%d:" (String.length s));
    Sha256.update h s
  in
  let add_dir dir =
    List.iter
      (fun f ->
        add f;
        add (read_file (Filename.concat dir f)))
      (files_under dir "")
  in
  add_dir (build_store ());
  let ers, _ =
    Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:2 (Rng.create ~seed:"store-golden") pub fig3
  in
  let sdir = fresh_dir () in
  Store.Sharded.build ~dir:sdir pub ers;
  add_dir sdir;
  Alcotest.(check string) "file digest" golden_files_sha256 (Sha256.hex (Sha256.finalize h))

(* ---------------- verdict sweep ---------------- *)

(* Whether every handle opens and verifies; a typed [Store.Error] is
   [false], and any other exception escapes and fails the test. *)
let opens_and_verifies open_ =
  match open_ () with
  | exception Store.Error _ -> false
  | sts ->
    Fun.protect
      ~finally:(fun () -> Array.iter Store.close sts)
      (fun () ->
        match Array.iter Store.verify sts with () -> true | exception Store.Error _ -> false)

(* Flip one bit of every byte of [file], then cut it at every length;
   each damaged copy must be a [Store.Error] from open or verify. *)
let sweep ~dir ~file ~open_ =
  let path = Filename.concat dir file in
  let pristine = read_file path in
  let len = String.length pristine in
  let case what bytes =
    write_file path bytes;
    let opened = opens_and_verifies open_ in
    write_file path pristine;
    if opened then Alcotest.failf "%s %s: opened and verified" file what
  in
  for i = 0 to len - 1 do
    let b = Bytes.of_string pristine in
    Bytes.set b i (Char.chr (Char.code pristine.[i] lxor (1 lsl (i mod 8))));
    case (Printf.sprintf "bit %d flipped" ((8 * i) + (i mod 8))) (Bytes.to_string b)
  done;
  for cut = 0 to len - 1 do
    case (Printf.sprintf "cut at %d" cut) (String.sub pristine 0 cut)
  done

let test_verdict_sweep () =
  let dir = build_store () in
  let single () = [| Store.open_index ~dir pub |] in
  sweep ~dir ~file:"MANIFEST" ~open_:single;
  sweep ~dir ~file:"seg_1_1.stk" ~open_:single;
  let sdir = fresh_dir () in
  let ers, _ = Sectopk.Scheme.encrypt_sharded ~s:4 ~shards:2 (Rng.create ~seed:"sweep") pub fig3 in
  Store.Sharded.build ~dir:sdir pub ers;
  let sharded () = Store.Sharded.open_index ~dir:sdir pub in
  sweep ~dir:sdir ~file:"SHARDMAP" ~open_:sharded;
  sweep ~dir:sdir ~file:"shard_1/MANIFEST" ~open_:sharded

(* ---------------- CSV ingestion ---------------- *)

let expect_csv_error name ~line f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Csv_error")
  | exception Uci_shape.Csv_error e ->
    Alcotest.(check int) (name ^ ": line (" ^ e.reason ^ ")") line e.line

let test_csv_good () =
  let rel, ids =
    Uci_shape.parse_csv ~name:"t" "id,alpha,beta\n\nitem-1, 10, 3\nitem-2,0,42\n"
  in
  Alcotest.(check int) "rows" 2 (Relation.n_rows rel);
  Alcotest.(check int) "attrs" 2 (Relation.n_attrs rel);
  Alcotest.(check (list string)) "ids in row order" [ "item-1"; "item-2" ] ids;
  Alcotest.(check int) "value (0,0)" 10 (Relation.value rel ~row:0 ~attr:0);
  Alcotest.(check int) "value (1,1)" 42 (Relation.value rel ~row:1 ~attr:1);
  (* headerless files work too: first line with an integer second field *)
  let rel2, ids2 = Uci_shape.parse_csv ~name:"t" "a,1,2\nb,3,4" in
  Alcotest.(check int) "headerless rows" 2 (Relation.n_rows rel2);
  Alcotest.(check (list string)) "headerless ids" [ "a"; "b" ] ids2

let test_csv_malformed () =
  expect_csv_error "non-integer value" ~line:2 (fun () ->
      Uci_shape.parse_csv ~name:"t" "a,1\nb,x\n");
  expect_csv_error "negative value" ~line:2 (fun () ->
      Uci_shape.parse_csv ~name:"t" "a,1\nb,-3\n");
  expect_csv_error "ragged row" ~line:3 (fun () ->
      Uci_shape.parse_csv ~name:"t" "a,1,2\nb,3,4\nc,5\n");
  expect_csv_error "duplicate id" ~line:3 (fun () ->
      Uci_shape.parse_csv ~name:"t" "a,1\nb,2\na,3\n");
  expect_csv_error "empty id" ~line:1 (fun () -> Uci_shape.parse_csv ~name:"t" ",3\n");
  expect_csv_error "missing attributes" ~line:2 (fun () ->
      Uci_shape.parse_csv ~name:"t" "a,1\nlonely\n");
  expect_csv_error "empty file" ~line:1 (fun () -> Uci_shape.parse_csv ~name:"t" "");
  expect_csv_error "header only" ~line:1 (fun () ->
      Uci_shape.parse_csv ~name:"t" "id,attr\n")

let test_csv_file_round_trip () =
  let path = Filename.temp_file "test_store_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path "id,a,b,c\nr0,10,3,2\nr1,8,8,0\nr2,5,7,6\n";
      let rel, ids = Uci_shape.load_csv path in
      Alcotest.(check int) "rows" 3 (Relation.n_rows rel);
      Alcotest.(check (list string)) "ids" [ "r0"; "r1"; "r2" ] ids;
      Alcotest.(check int) "value" 7 (Relation.value rel ~row:2 ~attr:1))

let suite =
  [ ( "round-trip",
      [ Alcotest.test_case "inproc identity" `Slow test_round_trip;
        Alcotest.test_case "every entry identical" `Quick test_every_entry_identical ] );
    ( "crash-safety",
      [ Alcotest.test_case "previous generation survives" `Quick
          test_crash_leaves_previous_generation ] );
    ( "rejection",
      [ Alcotest.test_case "corrupt manifest" `Quick test_corrupt_manifest;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "bad version" `Quick test_bad_version;
        Alcotest.test_case "truncated manifest" `Quick test_truncated_manifest;
        Alcotest.test_case "missing segment" `Quick test_missing_segment;
        Alcotest.test_case "truncated segment" `Quick test_truncated_segment;
        Alcotest.test_case "corrupt segment header" `Quick test_corrupt_segment_header;
        Alcotest.test_case "corrupt segment body" `Quick test_corrupt_segment_body;
        Alcotest.test_case "key mismatch" `Quick test_key_mismatch;
        Alcotest.test_case "missing directory" `Quick test_missing_dir;
        Alcotest.test_case "failed opens close their descriptors" `Quick
          test_failed_open_closes_fds ] );
    ( "cache",
      [ Alcotest.test_case "lazy reads, counters, eviction" `Quick test_cache_counters ] );
    ( "format",
      [ Alcotest.test_case "golden file digest" `Quick test_golden_files;
        Alcotest.test_case "verdict sweep" `Quick test_verdict_sweep ] );
    ( "csv",
      [ Alcotest.test_case "well-formed" `Quick test_csv_good;
        Alcotest.test_case "malformed rows" `Quick test_csv_malformed;
        Alcotest.test_case "file round trip" `Quick test_csv_file_round_trip ] ) ]

let () = Alcotest.run "store" suite
