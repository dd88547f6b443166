(* One run of one workload against the real deployment: build-index on
   the generated CSV, serve-s2 and serve-s1 as separate processes (with
   the link proxy between them on [wan]), the load generator in this
   process. [e2e] measures with tracing off; [per_layer] adds the traced
   in-process replay of the same queries. *)

open Proto

type env = {
  cli : string;  (** the topk_cli executable *)
  self : string;  (** this executable (runs the link proxy) *)
  work : string;  (** scratch directory of this run *)
}

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** the metrics BENCHMARK.json declares *)
  extra : metric list;  (** counts and percentiles printed by [run] only *)
  notes : string list;  (** why [correct] is false *)
}

let metric name unit value = { name; value; unit }
let ms s = s *. 1e3
let path env name = Filename.concat env.work name
let log env tag = path env (tag ^ ".log")

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* digest of a directory tree: relative paths and file contents *)
let tree_digest root =
  let rec files rel =
    let p = Filename.concat root rel in
    if Sys.is_directory p then
      Sys.readdir p |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e -> files (if rel = "" then e else Filename.concat rel e))
    else [ rel ]
  in
  files ""
  |> List.map (fun rel -> rel ^ ":" ^ Digest.to_hex (Digest.file (Filename.concat root rel)))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rec tree_bytes p =
  if Sys.is_directory p then
    Array.fold_left (fun acc e -> acc + tree_bytes (Filename.concat p e)) 0 (Sys.readdir p)
  else (Unix.stat p).Unix.st_size

(* ---- the deployment ----------------------------------------------------- *)

let build_index env ~csv ~store ~shards ~tag =
  Proc.run env.cli
    [ "build-index"; "--csv"; csv; "--seed"; Workload.key_seed; "--store"; store;
      "--key-out"; store ^ ".key"; "--shards"; string_of_int shards ]
    ~log:(log env tag)

type deployment = {
  s2 : Proc.daemon;
  proxy : Proc.daemon option;
  s1 : Proc.daemon;
  store : string;
  key : Sectopk.Scheme.secret_key;
}

let teardown d = List.iter (fun p -> ignore (Proc.stop p)) ([ d.s1 ] @ Option.to_list d.proxy @ [ d.s2 ])

(* Set-up time runs from build-index's start until both daemons accept;
   also returns the CPU time the started processes spent in it. *)
let deploy env (spec : Workload.spec) ~csv ~tag =
  let store = path env (tag ^ "-store") in
  let t0 = Unix.gettimeofday () in
  let info, _, _ = build_index env ~csv ~store ~shards:spec.shards ~tag:(tag ^ "-build") in
  if not info.Proc.ok then failwith (Printf.sprintf "build-index exited with %d" info.Proc.code);
  let started = ref [] in
  let start name args prog =
    let d = Proc.start ~name ~log:(log env (tag ^ "-" ^ name)) prog args in
    started := d :: !started;
    d
  in
  try
    let s2 = start "serve-s2" [ "serve-s2"; "--port"; "0" ] env.cli in
    let proxy =
      if spec.link then
        Some (start "link-proxy" [ "proxy"; "--upstream"; string_of_int s2.Proc.port ] env.self)
      else None
    in
    let s2_port = (match proxy with Some p -> p | None -> s2).Proc.port in
    let s1 =
      start "serve-s1"
        [ "serve-s1"; "--store"; store; "--seed"; Workload.key_seed; "--port"; "0";
          "--s2"; Printf.sprintf "127.0.0.1:%d" s2_port; "--variant"; spec.variant ]
        env.cli
    in
    let setup_s = Unix.gettimeofday () -. t0 in
    let cpu =
      List.fold_left (fun acc d -> acc +. Proc.cpu_seconds d.Proc.pid) info.Proc.usage.Proc.cpu_s !started
    in
    let key =
      Sectopk.Codec.decode_secret_key (In_channel.with_open_bin (store ^ ".key") In_channel.input_all)
    in
    ({ s2; proxy; s1; store; key }, setup_s, cpu)
  with e ->
    List.iter (fun d -> ignore (Proc.stop d)) !started;
    raise e

(* A run sets up three times and keeps the last deployment; each set-up
   time comes with the host-speed factor of its window, its CPU share and
   its stolen share (Calib). *)
let setups = 3

let deploy_repeatedly env spec ~csv ~cal =
  let rec go i times =
    let t0 = Unix.gettimeofday () in
    let d, s, cpu = deploy env spec ~csv ~tag:(Printf.sprintf "setup%d" i) in
    let k = Calib.factor cal ~t0 ~t1:(t0 +. s) in
    let stolen_share = Calib.stolen cal ~t0 ~t1:(t0 +. s) /. s in
    let times = (s, Calib.effective ~cpu_share:(cpu /. s) ~stolen_share k) :: times in
    if i = setups then (d, times)
    else begin
      teardown d;
      go (i + 1) times
    end
  in
  go 1 []

let scrape d = Transport.scrape_stats (Unix.ADDR_INET (Unix.inet_addr_loopback, d.s1.Proc.port))

(* (count, sum) of a serve-s1 histogram *)
let hist snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Registry.Histogram h) -> (h.Obs.Registry.hcount, h.Obs.Registry.hsum)
  | _ -> (0, 0)

(* per-query mean of a histogram over the queries between two scrapes *)
let hist_mean before after name =
  let c0, s0 = hist before name and c1, s1 = hist after name in
  if c1 = c0 then 0. else float_of_int (s1 - s0) /. float_of_int (c1 - c0)

let daemon_cpu d = (Proc.cpu_seconds d.s1.Proc.pid, Proc.cpu_seconds d.s2.Proc.pid)

(* ---- checks --------------------------------------------------------------- *)

let answered (s : Loadgen.sample) = s.Loadgen.outcome = Loadgen.Answer

(* Wrong answers, and answers that differ between passes of the same
   token (every query runs in a fresh seeded context, so a repeated token
   must get a byte-identical response). *)
let check_samples ~what runs =
  let notes = ref [] in
  Array.iteri
    (fun client samples ->
      let first = Hashtbl.create 32 in
      List.iter
        (fun (_, qi, (s : Loadgen.sample)) ->
          (match s.Loadgen.outcome with
          | Loadgen.Invalid why ->
            notes := Printf.sprintf "%s client %d query %d: wrong answer: %s" what client qi why :: !notes
          | _ -> ());
          if answered s then
            match Hashtbl.find_opt first qi with
            | None -> Hashtbl.replace first qi s.Loadgen.digest
            | Some d when d = s.Loadgen.digest -> ()
            | Some _ ->
              notes :=
                Printf.sprintf "%s client %d query %d: response differs between passes" what client qi
                :: !notes)
        samples)
    runs;
  List.rev !notes

let all_samples runs = Array.to_list runs |> List.concat_map (List.map (fun (_, _, s) -> s))

let failures samples = List.length (List.filter (fun s -> not (answered s)) samples)

let prepare env (spec : Workload.spec) ~seed =
  let rel = Workload.relation spec.data ~seed in
  let csv = path env "data.csv" in
  Workload.write_csv rel csv;
  let passes = Array.init spec.clients (fun client -> Workload.pass spec ~seed ~client) in
  (rel, csv, passes)

let warm_up (spec : Workload.spec) clients passes =
  if spec.warmup then
    fst (Loadgen.run_passes [| passes.(0) |] ~seconds:0. (fun _ _ q -> Loadgen.query clients.(0) q))
  else [||]

(* ---- the ingest operation ---------------------------------------------- *)

type build = {
  ok : bool;
  started : float;
  op_s : float;
  build_s : float;
  op_cpu_s : float;
  op_rss_kb : int;
  digest : string;
}

(* one owner-side publish: build-index into a fresh directory, then
   index-info --verify sweeps every block through its checksum *)
let ingest_op env ~csv ~shards ~tag =
  let store = path env tag and started = Unix.gettimeofday () in
  let b, _, build_s = build_index env ~csv ~store ~shards ~tag in
  let v, out, verify_s =
    Proc.run env.cli
      [ "index-info"; "--store"; store; "--seed"; Workload.key_seed; "--verify" ]
      ~log:(log env (tag ^ "-verify"))
  in
  let ok = b.Proc.ok && v.Proc.ok && contains out "all blocks verified" in
  let digest = if ok then tree_digest store else "" in
  rm_rf store;
  rm_rf (store ^ ".key");
  {
    ok;
    started;
    op_s = build_s +. verify_s;
    build_s;
    op_cpu_s = b.Proc.usage.Proc.cpu_s +. v.Proc.usage.Proc.cpu_s;
    op_rss_kb = max b.Proc.usage.Proc.maxrss_kb v.Proc.usage.Proc.maxrss_kb;
    digest;
  }

(* a pass: eight plain builds and two over two shards *)
let ingest_pass = [ 1; 1; 1; 1; 2; 1; 1; 1; 1; 2 ]

(* ---- end to end, tracing off --------------------------------------------- *)

(* What a measured phase leaves behind. Each time comes with the factor
   that takes it to reference speed: the host-speed factor of the window
   it was measured in, applied to its CPU share, less its stolen share
   (Calib). *)
type phase = {
  ops : (float * float) option list;  (** per operation: seconds, if it completed *)
  wall : float * float;  (** seconds of the phase *)
  cpus : (float * float) list;  (** CPU seconds of the processes doing the work *)
  speed : float;  (** the host-speed factor over the phase *)
  cpu_share : float;  (** of the time the operations took *)
  stolen_share : float;  (** of the same *)
  rss_kb : int;
  notes : string list;
  counts : metric list;
}

let query_phase d clients passes ~seconds ~warm ~cal =
  let before = scrape d and c0 = daemon_cpu d and t0 = Unix.gettimeofday () in
  let runs, wall = Loadgen.run_passes passes ~seconds (fun i _ q -> Loadgen.query clients.(i) q) in
  let c1 = daemon_cpu d and after = scrape d in
  let cpu = fst c1 -. fst c0 +. (snd c1 -. snd c0) in
  let k = Calib.factor cal ~t0 ~t1:(t0 +. wall) in
  (* shares of the time the clients waited: the daemons' CPU and the
     client's decrypt, and what was stolen from any CPU *)
  let served = List.filter answered (all_samples runs) in
  let total f = List.fold_left (fun acc (s : Loadgen.sample) -> acc +. f s) 0. served in
  let cpu_share = (cpu +. total (fun s -> s.decrypt_s)) /. total (fun s -> s.latency) in
  let stolen_share = Calib.stolen cal ~t0 ~t1:(t0 +. wall) /. total (fun s -> s.latency) in
  let ops =
    List.map
      (fun (s : Loadgen.sample) ->
        if answered s then
          let k = Calib.factor cal ~t0:s.sent ~t1:(s.sent +. s.latency) in
          Some (s.latency, Calib.effective ~cpu_share ~stolen_share k)
        else None)
      (all_samples runs)
  in
  let lat = Stats.sorted (List.map (fun s -> s.Loadgen.latency) served) in
  let p90 =
    (* only where at least ten samples lie beyond it *)
    if Array.length lat < 100 then []
    else
      [ metric "latency_p90_ms_raw" "ms" (ms lat.(int_of_float (Float.ceil (0.9 *. float_of_int (Array.length lat))) - 1)) ]
  in
  {
    ops;
    wall = (wall, Calib.effective ~cpu_share ~stolen_share k);
    cpus = [ (cpu, k) ];
    speed = k;
    cpu_share;
    stolen_share;
    rss_kb = Proc.peak_rss_kb d.s1.Proc.pid + Proc.peak_rss_kb d.s2.Proc.pid;
    notes = check_samples ~what:"warm-up" warm @ check_samples ~what:"measured" runs;
    counts =
      p90
      @ [
          metric "s1_s2_kb_per_query" "KB" (hist_mean before after "query_bytes" /. 1024.);
          metric "rounds_per_query" "rounds" (hist_mean before after "query_rounds");
        ];
  }

(* every build of the same CSV and shard count must be byte-identical to
   the first one (the plain ones to the served index) *)
let ingest_phase env d ~csv ~rows ~seconds ~warm ~cal =
  let t0 = Unix.gettimeofday () in
  let runs, wall =
    Loadgen.run_passes [| ingest_pass |] ~seconds (fun _ qi shards ->
        ingest_op env ~csv ~shards ~tag:(Printf.sprintf "ingest-%d" qi))
  in
  let runs = runs.(0) in
  let reference = Hashtbl.create 2 in
  Hashtbl.replace reference 1 (tree_digest d.store);
  let notes =
    List.filter_map
      (fun (p, qi, b) ->
        let shards = List.nth ingest_pass qi in
        match Hashtbl.find_opt reference shards with
        | _ when not b.ok -> None
        | None ->
          Hashtbl.replace reference shards b.digest;
          None
        | Some r when r = b.digest -> None
        | Some _ -> Some (Printf.sprintf "pass %d build %d (%d shards) is not byte-identical" p qi shards))
      runs
  in
  let plain =
    List.filter_map (fun (_, qi, b) -> if b.ok && List.nth ingest_pass qi = 1 then Some b.build_s else None) runs
  in
  let factor b = Calib.factor cal ~t0:b.started ~t1:(b.started +. b.op_s) in
  let stolen b = Calib.stolen cal ~t0:b.started ~t1:(b.started +. b.op_s) in
  let total f = List.fold_left (fun acc (_, _, b) -> acc +. f b) 0. runs in
  let k = Calib.factor cal ~t0 ~t1:(t0 +. wall) in
  let cpu_share = total (fun b -> b.op_cpu_s) /. total (fun b -> b.op_s) in
  let stolen_share = total stolen /. total (fun b -> b.op_s) in
  let rows = float_of_int rows in
  {
    ops =
      List.map
        (fun (_, _, b) ->
          if b.ok then
            Some
              ( b.op_s,
                Calib.effective ~cpu_share:(b.op_cpu_s /. b.op_s) ~stolen_share:(stolen b /. b.op_s)
                  (factor b) )
          else None)
        runs;
    wall = (wall, Calib.effective ~cpu_share ~stolen_share k);
    cpus = List.map (fun (_, _, b) -> (b.op_cpu_s, factor b)) runs;
    speed = k;
    cpu_share;
    stolen_share;
    rss_kb = List.fold_left (fun acc (_, _, b) -> max acc b.op_rss_kb) 0 runs;
    notes = check_samples ~what:"validation" warm @ notes;
    counts =
      [
        metric "ingest_rows_per_s" "rows/s" (rows /. Stats.median plain);
        metric "index_bytes_per_row" "B" (float_of_int (tree_bytes d.store) /. rows);
      ];
  }

(* Every time metric is reported scaled to reference speed by the factor
   it was measured under, and also as measured (the *_raw lines). *)
let e2e env (spec : Workload.spec) ~seed ~seconds =
  let rel, csv, passes = prepare env spec ~seed in
  let cal = Calib.start () in
  Fun.protect ~finally:(fun () -> Calib.stop cal) @@ fun () ->
  let d, setup_times = deploy_repeatedly env spec ~csv ~cal in
  let warm, ph =
    Fun.protect ~finally:(fun () -> teardown d) @@ fun () ->
    let clients =
      Array.init spec.clients (fun _ -> Loadgen.create ~port:d.s1.Proc.port ~key:d.key ~rel)
    in
    let warm = warm_up spec clients passes in
    ( all_samples warm,
      match spec.name with
      | Workload.Ingest ->
        ingest_phase env d ~csv ~rows:(Dataset.Relation.n_rows rel) ~seconds ~warm ~cal
      | _ -> query_phase d clients passes ~seconds ~warm ~cal )
  in
  let lat = List.filter_map Fun.id ph.ops in
  let n = float_of_int (List.length lat) in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let times scale =
    let v (x, k) = if scale then x *. k else x in
    [
      metric "latency_p50_ms" "ms" (ms (Stats.median (List.map v lat)));
      metric "qps" "1/s" (n /. v ph.wall);
      metric "cpu_ms_per_op" "ms" (ms (sum v ph.cpus /. n));
      metric "setup_s" "s" (Stats.median (List.map v setup_times));
    ]
  in
  {
    correct = ph.notes = [];
    attempted = List.length warm + List.length ph.ops;
    failed = failures warm + List.length ph.ops - List.length lat;
    metrics = times true @ [ metric "peak_rss_mb" "MB" (float_of_int ph.rss_kb /. 1024.) ];
    extra =
      [ metric "ops" "ops" n; metric "speed_scale" "ratio" ph.speed;
        metric "cpu_share" "ratio" ph.cpu_share; metric "stolen_share" "ratio" ph.stolen_share ]
      @ ph.counts
      @ List.map (fun m -> { m with name = m.name ^ "_raw" }) (times false);
    notes = ph.notes;
  }

(* ---- per layer: one untraced pass, then the traced replay ---------------- *)

let crypto_ops =
  Obs.Metrics.
    [ Paillier_enc; Paillier_dec; Paillier_mul; Paillier_rerand; Dj_enc; Dj_dec; Dj_mul; Dj_rerand;
      Modexp; Modexp_fixed_base ]

let per_layer env (spec : Workload.spec) ~seed ~seconds =
  let t_start = Unix.gettimeofday () in
  let rel, csv, passes = prepare env spec ~seed in
  let forced0 = Atomic.get Proc.forced in
  let d, _, _ = deploy env spec ~csv ~tag:"trace" in
  let untraced, before, after, (s1_cpu, s2_cpu) =
    Fun.protect ~finally:(fun () -> teardown d) @@ fun () ->
    let clients =
      Array.init spec.clients (fun _ -> Loadgen.create ~port:d.s1.Proc.port ~key:d.key ~rel)
    in
    let before = scrape d and a1, a2 = daemon_cpu d in
    let runs, _ = Loadgen.run_passes passes ~seconds:0. (fun i _ q -> Loadgen.query clients.(i) q) in
    let b1, b2 = daemon_cpu d and after = scrape d in
    (runs, before, after, (b1 -. a1, b2 -. a2))
  in
  let forced = Atomic.get Proc.forced - forced0 in
  let a, records, unit_us =
    Traced.run spec ~rel ~csv ~dir:(path env "traced-store") ~passes
      ~seconds:(seconds -. (Unix.gettimeofday () -. t_start))
  in
  (* the replay must reproduce every untraced answer, depth, round and byte *)
  let notes = ref (check_samples ~what:"untraced" untraced) in
  let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt in
  Array.iteri
    (fun client recs ->
      List.iter
        (fun (p, qi, (r : Traced.record)) ->
          Option.iter (note "traced client %d query %d: wrong answer: %s" client qi) r.Traced.invalid;
          match List.find_opt (fun (_, qi', _) -> qi' = qi) untraced.(client) with
          | Some (_, _, s) when answered s ->
            if s.Loadgen.digest <> r.Traced.digest || s.Loadgen.depth <> r.Traced.depth then
              note "traced client %d pass %d query %d differs from the served answer" client p qi
          | _ -> ())
        recs)
    records;
  let first_pass = Array.to_list records |> List.concat_map (List.filter (fun (p, _, _) -> p = 0)) in
  let traced_sum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 first_pass in
  let served_sum name = snd (hist after name) - snd (hist before name) in
  if traced_sum (fun r -> r.Traced.rounds) <> served_sum "query_rounds" then
    note "traced rounds %d, served %d" (traced_sum (fun r -> r.Traced.rounds)) (served_sum "query_rounds");
  if traced_sum (fun r -> r.Traced.bytes) <> served_sum "query_bytes" then
    note "traced bytes %d, served %d" (traced_sum (fun r -> r.Traced.bytes)) (served_sum "query_bytes");
  (* untraced side *)
  let served = List.filter answered (all_samples untraced) in
  let nu = float_of_int (List.length served) in
  let umean f = Stats.mean (List.map f served) in
  let exec_ms = hist_mean before after "exec_us" /. 1e3 in
  let queue_ms = hist_mean before after "queue_wait_us" /. 1e3 in
  let decrypt_ms = ms (umean (fun s -> s.Loadgen.decrypt_s)) in
  (* traced side, per query *)
  let g = Traced.get a in
  let nq = g "queries" in
  let per name = g name /. nq in
  let trips = g "sched.trips" and entries = g "store.entries" in
  let hits = g "op.cache_hit" and misses = g "op.cache_miss" in
  let rows = g "ingest.rows" in
  let crypto_counts =
    List.map (fun op -> (Obs.Metrics.name op, per ("op." ^ Obs.Metrics.name op))) crypto_ops
  in
  let est_ms =
    List.fold_left (fun acc (name, us) -> acc +. (List.assoc name crypto_counts *. us /. 1e3)) 0. unit_us
  in
  let metrics =
    [
      metric "server.queue_wait_ms" "ms" queue_ms;
      metric "server.exec_ms" "ms" exec_ms;
      metric "server.io_ms" "ms" (ms (umean (fun s -> s.Loadgen.latency)) -. queue_ms -. exec_ms -. decrypt_ms);
      metric "server.s1_s2_kb_per_query" "KB" (hist_mean before after "query_bytes" /. 1024.);
      metric "server.rounds_per_query" "rounds" (hist_mean before after "query_rounds");
      metric "client.token_ms" "ms" (ms (umean (fun s -> s.Loadgen.token_s)));
      metric "client.decrypt_ms" "ms" decrypt_ms;
      metric "s1.cpu_ms_per_query" "ms" (ms (s1_cpu /. nu));
      metric "s2.cpu_ms_per_query" "ms" (ms (s2_cpu /. nu));
      metric "daemons.teardown_forced" "count" (float_of_int forced);
      metric "ctx.provision_ms" "ms" (ms (per "ctx.provision"));
      metric "ctx.of_keys_ms" "ms" (ms (per "ctx.of_keys"));
      metric "sched.open_close_ms" "ms" (ms (per "sched.open_close"));
      metric "sched.trips_per_query" "trips" (trips /. nq);
      metric "sched.ops_per_trip" "ops" (g "sched.ops" /. trips);
      metric "sched.wait_ms" "ms" (ms (per "sched.wait"));
      metric "sched.queued_share" "ratio" (g "sched.queued" /. g "sched.wait");
      metric "wire.codec_ms" "ms" (ms (per "wire.codec"));
      metric "wire.kb_per_trip" "KB" (g "wire.bytes" /. 1024. /. trips);
      metric "s2.handle_ms" "ms" (ms (per "s2.handle"));
    ]
    @ List.map (fun p -> metric ("s2." ^ p ^ "_ms") "ms" (ms (per ("s2." ^ p)))) Traced.protocols
    @ List.map (fun p -> metric ("proto." ^ p ^ "_ms") "ms" (ms (per ("proto." ^ p)))) Traced.protocols
    @ List.map (fun p -> metric ("proto." ^ p ^ "_kb") "KB" (per ("kb." ^ p) /. 1024.)) Traced.protocols
    @ [
        metric "query.depth" "depth" (per "query.depth");
        metric "query.ms_per_depth" "ms" (ms (g "query.run" /. g "query.depth"));
        metric "s1.compute_ms" "ms" (ms (per "s1.compute"));
        metric "shard.merge_rounds" "count" (per "shard.merge_rounds");
      ]
    @ List.map (fun (name, v) -> metric ("crypto." ^ name) "count" v) crypto_counts
    @ List.map (fun (name, us) -> metric ("crypto." ^ name ^ "_us") "us" us) unit_us
    @ [
        metric "crypto.est_ms" "ms" est_ms;
        metric "store.entry_us" "us" (g "store.entry" /. entries *. 1e6);
        metric "store.entries" "count" (entries /. nq);
        metric "store.read_kb" "KB" (per "op.store_read_bytes" /. 1024.);
        metric "store.cache_hit_ratio" "ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 1.);
        metric "store.open_ms" "ms" (ms (g "store.open"));
        metric "store.index_bytes_per_row" "B" (g "store.disk_bytes" /. rows);
        metric "ingest.csv_load_ms" "ms" (ms (g "ingest.csv_load"));
        metric "ingest.encrypt_ms_per_1k_rows" "ms" (ms (g "ingest.encrypt") /. rows *. 1000.);
        metric "ingest.publish_ms" "ms" (ms (g "ingest.publish"));
        metric "ingest.verify_ms" "ms" (ms (g "ingest.verify"));
        metric "ingest.rows_per_s" "rows/s"
          (rows /. (g "ingest.csv_load" +. g "ingest.encrypt" +. g "ingest.publish"));
        metric "trace.wall_ms" "ms" (ms (per "trace.wall"));
        metric "trace.residual_ms" "ms" (ms (per "trace.residual"));
        metric "trace.overhead_ratio" "ratio" (per "trace.exec" /. (exec_ms /. 1e3));
      ]
  in
  let samples = all_samples untraced in
  {
    correct = !notes = [];
    attempted = List.length samples + int_of_float nq;
    failed = failures samples;
    metrics;
    extra = [];
    notes = !notes;
  }
