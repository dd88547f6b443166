(* Observability tests: (a) metrics/span determinism across domain-pool
   widths, (b) the closed-form Cost_model (cost_model.ml) against measured counters
   (exact equality), (c) disabled observability changes nothing. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let rng = Rng.create ~seed:"test_obs"
let ctx = Ctx.create ~blind_bits:48 rng ~bits:128
let s1 = ctx.Ctx.s1
let pub = s1.Ctx.pub
let keys = Prf.gen_keys rng 4

let enc i = Paillier.encrypt rng pub (Nat.of_int i)

let entry oid score = { Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys oid; score = enc score }

let scored ?(seen = [| 1; 0 |]) oid worst best =
  {
    Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys oid;
    worst = enc worst;
    best = enc best;
    seen = Array.map enc seen;
  }

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

(* run [f] under a fresh collector with observability on; return counters *)
let measure f =
  let c = Obs.Collector.create () in
  ignore (with_obs (fun () -> Obs.with_collector c f));
  Obs.Collector.metrics c

let params =
  {
    Cost_model.cells = 4;
    seen = 2;
    ct = Paillier.ciphertext_bytes pub;
    own_ct = Paillier.ciphertext_bytes s1.Ctx.own_pub;
    req_base = Wire.request_header_bytes ~label:"";
    resp_base = Wire.response_header_bytes;
  }

let check_model name model measured =
  List.iter
    (fun (op, expected) ->
      Alcotest.(check int)
        (name ^ ": " ^ Obs.Metrics.name op)
        expected
        (Obs.Metrics.get measured op))
    (Cost_model.to_alist model)

(* ---------------- cost model vs measured ---------------- *)

let test_model_enc_compare () =
  let a = enc 3 and b = enc 5 in
  let m = measure (fun () -> ignore (Enc_compare.leq ctx a b)) in
  check_model "enc_compare" (Cost_model.enc_compare params) m

let test_model_sec_worst () =
  let target = entry "o1" 10 in
  let others = [ entry "o2" 8; entry "o3" 6 ] in
  let m = measure (fun () -> ignore (Sec_worst.run ctx ~target ~others)) in
  check_model "sec_worst" (Cost_model.sec_worst params ~others:2) m

let test_model_sec_dedup () =
  (* Replace mode: 4 items, one duplicated pair -> 1 non-keeper *)
  let items = [ scored "o1" 5 9; scored "o2" 3 7; scored "o1" 4 8; scored "o3" 1 4 ] in
  let m = measure (fun () -> ignore (Sec_dedup.run ctx ~mode:Sec_dedup.Replace items)) in
  check_model "sec_dedup replace"
    (Cost_model.sec_dedup params ~mode:`Replace ~items:4 ~dups:1)
    m;
  (* Eliminate mode: 4 items, a triple -> 2 non-keepers *)
  let items = [ scored "o1" 5 9; scored "o2" 3 7; scored "o1" 4 8; scored "o1" 2 6 ] in
  let m = measure (fun () -> ignore (Sec_dedup.run ctx ~mode:Sec_dedup.Eliminate items)) in
  check_model "sec_dedup eliminate"
    (Cost_model.sec_dedup params ~mode:`Eliminate ~items:4 ~dups:2)
    m

let test_model_enc_sort () =
  let items = [ scored "o1" 1 4; scored "o2" 5 9; scored "o3" 3 7 ] in
  let m =
    measure (fun () -> ignore (Enc_sort.sort ctx ~strategy:Enc_sort.Blinded items))
  in
  check_model "enc_sort" (Cost_model.enc_sort_blinded params ~items:3) m

(* ---------------- sharded (many-form) cost models ---------------- *)

let test_model_enc_compare_many () =
  let pairs = [ (enc 3, enc 5); (enc 7, enc 2); (enc 1, enc 1) ] in
  let m = measure (fun () -> ignore (Enc_compare.leq_many ctx pairs)) in
  check_model "enc_compare_many" (Cost_model.enc_compare_many params ~pairs:3) m;
  (* a single pair must reduce to the singleton form *)
  Alcotest.(check bool) "1 pair = enc_compare" true
    (Cost_model.enc_compare_many params ~pairs:1 = Cost_model.enc_compare params)

let test_model_sec_worst_many () =
  (* three instances (a 3-list depth row), each against the other two *)
  let row = [| entry "o1" 10; entry "o2" 8; entry "o3" 6 |] in
  let instances =
    List.init 3 (fun i ->
        (row.(i), List.filteri (fun j _ -> j <> i) (Array.to_list row)))
  in
  let m = measure (fun () -> ignore (Sec_worst.run_many ctx instances)) in
  check_model "sec_worst_many" (Cost_model.sec_worst_many params ~others:[ 2; 2; 2 ]) m;
  Alcotest.(check bool) "1 instance = sec_worst" true
    (Cost_model.sec_worst_many params ~others:[ 2 ] = Cost_model.sec_worst params ~others:2)

(* The load-bearing property of the scatter-gather design: crypto work of
   the phase-collapsed fleet is the SUM of the per-shard work, while the
   round count stays that of a single shard — and the checkpoint merge
   costs two rounds whatever the shard count. *)
let test_model_shard_flatness () =
  let open Cost_model in
  let crypto c = (c.penc, c.pdec, c.pmul, c.prr) in
  List.iter
    (fun shards ->
      let others = List.concat_map (fun _ -> [ 2; 2; 2 ]) (List.init shards Fun.id) in
      let fleet = sec_worst_many params ~others in
      let one = sec_worst_many params ~others:[ 2; 2; 2 ] in
      let solo = sum (List.map (fun j -> sec_worst params ~others:j) others) in
      Alcotest.(check bool)
        (Printf.sprintf "worst crypto sums (%d shards)" shards)
        true
        (crypto fleet = crypto solo);
      Alcotest.(check int)
        (Printf.sprintf "worst rounds flat (%d shards)" shards)
        one.rounds fleet.rounds;
      let merge = shard_merge params ~items:(shards * 6) ~k:3 ~bounds:shards in
      Alcotest.(check int) (Printf.sprintf "merge rounds (%d shards)" shards) 2 merge.rounds)
    [ 1; 2; 4; 8 ];
  (* sort-only checkpoint: fewer candidates than k *)
  Alcotest.(check int) "merge below k sorts only" 1
    (shard_merge params ~items:2 ~k:3 ~bounds:4).rounds

(* ---------------- determinism across --domains ---------------- *)

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let run_fig3 ?(variant = Sectopk.Query.Elim) domains =
  let rng = Rng.create ~seed:"obs-domains" in
  let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits:128 in
  let ctx = Ctx.of_keys ~blind_bits:48 ~domains (Rng.fork rng ~label:"ctx") pub sk in
  let er, key = Sectopk.Scheme.encrypt ~s:4 (Rng.fork rng ~label:"enc") pub fig3 in
  let tk =
    Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2
  in
  let res = Sectopk.Query.run ctx er tk { Sectopk.Query.default_options with variant } in
  (ctx, res)

(* SecWorst, SecUpdate and SecDedup pick in one Paillier round each and
   SecRefresh masks in one: a SecTopK query runs no Damgård–Jurik
   operation, under either dedup mode. *)
let test_query_no_dj () =
  List.iter
    (fun (name, variant) ->
      let ctx, res = with_obs (fun () -> run_fig3 ~variant 1) in
      Alcotest.(check bool) (name ^ ": answered") true (res.Sectopk.Query.top <> []);
      let got = Obs.Metrics.get (Obs.Collector.metrics ctx.Ctx.obs) in
      Alcotest.(check bool) (name ^ ": S2 decrypted") true (got Obs.Metrics.Paillier_dec > 0);
      List.iter
        (fun op -> Alcotest.(check int) (name ^ ": " ^ Obs.Metrics.name op) 0 (got op))
        Obs.Metrics.[ Dj_enc; Dj_dec; Dj_mul; Dj_rerand ])
    [ ("Qry_F", Sectopk.Query.Full); ("Qry_E", Sectopk.Query.Elim) ]

let test_domains_deterministic () =
  (* counters, bytes/rounds and the span tree must be byte-identical for
     any pool width; only wall times may differ, and the canonical
     rendering excludes them *)
  let (ctx1, _), (ctx4, _) = with_obs (fun () -> (run_fig3 1, run_fig3 4)) in
  Alcotest.(check (list (pair string int)))
    "op counters identical"
    (List.map
       (fun (op, v) -> (Obs.Metrics.name op, v))
       (Obs.Metrics.to_alist (Obs.Collector.metrics ctx1.Ctx.obs)))
    (List.map
       (fun (op, v) -> (Obs.Metrics.name op, v))
       (Obs.Metrics.to_alist (Obs.Collector.metrics ctx4.Ctx.obs)));
  Alcotest.(check string)
    "canonical report identical"
    (Obs.Report.render ~times:false ctx1.Ctx.obs)
    (Obs.Report.render ~times:false ctx4.Ctx.obs);
  Alcotest.(check bool) "report non-trivial" true
    (List.length (Obs.Report.rows ctx1.Ctx.obs) > 3)

(* ---------------- disabled mode ---------------- *)

let test_noop_mode () =
  let prev = Obs.is_enabled () in
  Obs.set_enabled false;
  let ctx_off, res_off = run_fig3 1 in
  let (ctx_on, res_on) = with_obs (fun () -> run_fig3 1) in
  Obs.set_enabled prev;
  (* same seeded query: identical results whether or not obs is recording *)
  let nat_eq (a : Paillier.ciphertext) (b : Paillier.ciphertext) =
    Nat.equal (a :> Nat.t) (b :> Nat.t)
  in
  Alcotest.(check int) "halting depth"
    res_off.Sectopk.Query.halting_depth res_on.Sectopk.Query.halting_depth;
  Alcotest.(check bool) "ciphertexts bit-identical" true
    (List.for_all2
       (fun (a : Enc_item.scored) (b : Enc_item.scored) ->
         nat_eq a.worst b.worst && nat_eq a.best b.best
         && Array.for_all2 nat_eq a.seen b.seen)
       res_off.Sectopk.Query.top res_on.Sectopk.Query.top);
  Alcotest.(check int) "bytes identical"
    (Channel.bytes_total (Ctx.channel ctx_off))
    (Channel.bytes_total (Ctx.channel ctx_on));
  (* and the disabled run recorded nothing *)
  Alcotest.(check bool) "disabled collector empty" true
    (Obs.Collector.is_empty ctx_off.Ctx.obs);
  Alcotest.(check bool) "enabled collector non-empty" false
    (Obs.Collector.is_empty ctx_on.Ctx.obs)

(* ---------------- Hist properties ---------------- *)

let hist_of values =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.record h) values;
  h

(* canonical rendering of everything a snapshot exposes *)
let hist_fingerprint h =
  Printf.sprintf "c=%d s=%d min=%d max=%d b=[%s]" (Obs.Hist.count h) (Obs.Hist.sum h)
    (Obs.Hist.min_value h) (Obs.Hist.max_value h)
    (String.concat ";"
       (List.map (fun (ub, n) -> Printf.sprintf "%d:%d" ub n) (Obs.Hist.buckets h)))

let sample_gen =
  (* mix of magnitudes so both the exact (<8) and log-linear regimes and
     several octaves get exercised *)
  QCheck.Gen.(
    frequency
      [ (2, int_bound 7); (4, int_bound 1000); (3, int_bound 1_000_000);
        (1, map (fun v -> v * 1_000_003) (int_bound 1_000_000)) ])

let samples_arb = QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_range 1 200) sample_gen)

let prop_bucket_scheme =
  QCheck.Test.make ~name:"bucket bounds and relative width" ~count:2000
    (QCheck.make sample_gen) (fun v ->
      let idx = Obs.Hist.bucket_index v in
      let ub = Obs.Hist.bucket_upper idx in
      let lb = if idx = 0 then 0 else Obs.Hist.bucket_upper (idx - 1) + 1 in
      idx >= 0 && idx < Obs.Hist.n_buckets && lb <= v && v <= ub
      (* bucket width bounds the quantile over-estimate: ub <= v + v/8 + 1 *)
      && ub - v <= (v / 8) + 1)

let prop_merge_comm =
  QCheck.Test.make ~name:"merge commutative" ~count:200
    (QCheck.pair samples_arb samples_arb) (fun (xs, ys) ->
      let ab = hist_of xs and ba = hist_of ys in
      Obs.Hist.merge_into (hist_of ys) ~into:ab;
      Obs.Hist.merge_into (hist_of xs) ~into:ba;
      hist_fingerprint ab = hist_fingerprint ba)

let prop_merge_assoc =
  QCheck.Test.make ~name:"merge associative" ~count:200
    (QCheck.triple samples_arb samples_arb samples_arb) (fun (xs, ys, zs) ->
      let left = hist_of xs in
      Obs.Hist.merge_into (hist_of ys) ~into:left;
      Obs.Hist.merge_into (hist_of zs) ~into:left;
      let yz = hist_of ys in
      Obs.Hist.merge_into (hist_of zs) ~into:yz;
      let right = hist_of xs in
      Obs.Hist.merge_into yz ~into:right;
      hist_fingerprint left = hist_fingerprint right)

let prop_quantile_error =
  (* the estimate brackets the sorted-sample oracle: never below it, and
     above by at most one bucket width (12.5% + 1) *)
  QCheck.Test.make ~name:"quantile vs sorted oracle" ~count:300
    (QCheck.pair samples_arb (QCheck.float_range 0.01 1.)) (fun (xs, q) ->
      let h = hist_of xs in
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let oracle = List.nth sorted (min (n - 1) (rank - 1)) in
      let est = Obs.Hist.quantile h q in
      oracle <= est && est <= oracle + (oracle / 8) + 1)

let prop_sharded_deterministic =
  (* the --domains determinism argument: shard the sample stream over
     any number of per-domain histograms, merge, and the result is
     identical to single-stream recording — merges are exact *)
  QCheck.Test.make ~name:"sharded record+merge = sequential" ~count:200
    (QCheck.pair samples_arb (QCheck.int_range 1 8)) (fun (xs, shards) ->
      let parts = Array.init shards (fun _ -> Obs.Hist.create ()) in
      List.iteri (fun i v -> Obs.Hist.record parts.(i mod shards) v) xs;
      let merged = Obs.Hist.create () in
      Array.iter (fun p -> Obs.Hist.merge_into p ~into:merged) parts;
      hist_fingerprint merged = hist_fingerprint (hist_of xs))

let test_hist_parallel_domains () =
  (* per-domain shards recorded by real parallel domains, merged on the
     spawning domain: byte-identical to the sequential fingerprint *)
  let values = List.init 5000 (fun i -> (i * 7919) mod 2_000_000) in
  let shards = 4 in
  let doms =
    List.init shards (fun d ->
        Domain.spawn (fun () ->
            let h = Obs.Hist.create () in
            List.iteri (fun i v -> if i mod shards = d then Obs.Hist.record h v) values;
            h))
  in
  let merged = Obs.Hist.create () in
  List.iter (fun d -> Obs.Hist.merge_into (Domain.join d) ~into:merged) doms;
  Alcotest.(check string) "parallel fingerprint" (hist_fingerprint (hist_of values))
    (hist_fingerprint merged)

let test_hist_basics () =
  let h = Obs.Hist.create () in
  Alcotest.(check bool) "fresh empty" true (Obs.Hist.is_empty h);
  Alcotest.(check int) "empty quantile" 0 (Obs.Hist.quantile h 0.5);
  Obs.Hist.record h (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Obs.Hist.max_value h);
  Obs.Hist.clear h;
  Obs.Hist.record_seconds h 0.001234;
  Alcotest.(check int) "record_seconds rounds to us" 1234 (Obs.Hist.sum h);
  Alcotest.(check (float 1e-9) "quantile_seconds inverse" )
    (float_of_int (Obs.Hist.quantile h 0.5) /. 1e6)
    (Obs.Hist.quantile_seconds h 0.5)

(* ---------------- Registry ---------------- *)

let test_registry_snapshot () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "served" in
  Obs.Registry.add c 41;
  Obs.Registry.inc c;
  Obs.Registry.set (Obs.Registry.gauge r "queue_depth") 3.5;
  let h = Obs.Registry.histogram r "exec_us" in
  List.iter (Obs.Registry.observe h) [ 5; 90; 1700; 42_000 ];
  let snap = Obs.Registry.snapshot r in
  Alcotest.(check bool) "sorted names" true
    (let names = List.map fst snap in
     names = List.sort compare names);
  (match List.assoc "served" snap with
  | Obs.Registry.Counter v -> Alcotest.(check int) "counter" 42 v
  | _ -> Alcotest.fail "served not a counter");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let prom = Obs.Registry.to_prometheus snap in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prom contains " ^ needle) true (contains prom needle))
    [ "# TYPE served counter"; "# TYPE queue_depth gauge"; "# TYPE exec_us histogram";
      "exec_us_count 4"; "le=\"+Inf\"" ]

let test_registry_handle_reuse () =
  let r = Obs.Registry.create () in
  Obs.Registry.inc (Obs.Registry.counter r "x");
  Obs.Registry.inc (Obs.Registry.counter r "x");
  Alcotest.(check int) "same cell" 2
    (Obs.Registry.counter_value (Obs.Registry.counter r "x"));
  (match Obs.Registry.gauge r "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch accepted")

(* The JSON exposition, pinned byte for byte: an escaped name, a float
   gauge, an empty histogram, and a snapshot whose sections are empty. *)
let test_registry_json () =
  let empty_hist = { Obs.Registry.hcount = 0; hsum = 0; hmin = 0; hmax = 0; hbuckets = [] } in
  let sample : Obs.Registry.snapshot =
    [ ("a\"b\\c", Obs.Registry.Counter 7);
      ("empty_us", Obs.Registry.Histogram empty_hist);
      ( "exec_us",
        Obs.Registry.Histogram
          { hcount = 3; hsum = 120; hmin = 5; hmax = 90; hbuckets = [ (7, 1); (127, 2) ] } );
      ("load", Obs.Registry.Gauge 0.25) ]
  in
  Alcotest.(check string) "sample"
    "{\"counters\":{\"a\\\"b\\\\c\":7},\"gauges\":{\"load\":0.25},\"histograms\":{\
     \"empty_us\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},\
     \"exec_us\":{\"count\":3,\"sum\":120,\"min\":5,\"max\":90,\"buckets\":[[7,1],[127,2]]}}}"
    (Obs.Registry.to_json sample);
  Alcotest.(check string) "empty sections" "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    (Obs.Registry.to_json [])

let suite =
  [ ( "cost-model",
      [ Alcotest.test_case "enc_compare" `Quick test_model_enc_compare;
        Alcotest.test_case "sec_worst" `Quick test_model_sec_worst;
        Alcotest.test_case "sec_dedup" `Quick test_model_sec_dedup;
        Alcotest.test_case "enc_sort" `Quick test_model_enc_sort;
        Alcotest.test_case "enc_compare_many" `Quick test_model_enc_compare_many;
        Alcotest.test_case "sec_worst_many" `Quick test_model_sec_worst_many;
        Alcotest.test_case "shard flatness" `Quick test_model_shard_flatness ] );
    ( "hist",
      [ QCheck_alcotest.to_alcotest prop_bucket_scheme;
        QCheck_alcotest.to_alcotest prop_merge_comm;
        QCheck_alcotest.to_alcotest prop_merge_assoc;
        QCheck_alcotest.to_alcotest prop_quantile_error;
        QCheck_alcotest.to_alcotest prop_sharded_deterministic;
        Alcotest.test_case "parallel domains" `Quick test_hist_parallel_domains;
        Alcotest.test_case "basics" `Quick test_hist_basics ] );
    ( "registry",
      [ Alcotest.test_case "snapshot + prometheus" `Quick test_registry_snapshot;
        Alcotest.test_case "handle reuse" `Quick test_registry_handle_reuse;
        Alcotest.test_case "json exposition" `Quick test_registry_json ] );
    ( "determinism",
      [ Alcotest.test_case "domains 1 vs 4" `Slow test_domains_deterministic;
        Alcotest.test_case "a SecTopK query counts no DJ operation" `Quick test_query_no_dj;
        Alcotest.test_case "no-op mode" `Slow test_noop_mode ] ) ]

let () = Alcotest.run "obs" suite
