(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 11 and Section 12.4.1) at simulator scale.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig9a -- one experiment
     dune exec bench/main.exe -- --list       -- list experiment ids
     dune exec bench/main.exe -- --json DIR   -- also write BENCH_<id>.json
     dune exec bench/main.exe -- --domains N  -- query-side domain pool width
     dune exec bench/main.exe -- --transport T - inproc (default) | loopback
     dune exec bench/main.exe -- --rtt MICROS - per-round latency on the loopback transport
     dune exec bench/main.exe -- --no-batching - one frame per request (historical framing)
     dune exec bench/main.exe -- --clients N   - top of the concurrency sweep axis
     dune exec bench/main.exe -- --no-coalescing - concurrency sweep without the round scheduler

   Paper-vs-measured commentary lives in EXPERIMENTS.md. *)

let experiments : (string * string * (unit -> unit)) list =
  [ ("fig7", "EHL vs EHL+ construction time/size vs n", Bench_ehl.fig7);
    ("fig8", "encryption time/size on the 4 evaluation datasets", Bench_ehl.fig8);
    ("fig9a", "Qry_F time per depth varying k", Bench_query.fig9a);
    ("fig9b", "Qry_F time per depth varying m", Bench_query.fig9b);
    ("fig10a", "Qry_E time per depth varying k", Bench_query.fig10a);
    ("fig10b", "Qry_E time per depth varying m", Bench_query.fig10b);
    ("fig11a", "Qry_Ba time per depth varying k", Bench_query.fig11a);
    ("fig11b", "Qry_Ba time per depth varying m", Bench_query.fig11b);
    ("fig11c", "Qry_Ba time per depth varying p", Bench_query.fig11c);
    ("fig12", "variant comparison Qry_Ba / Qry_E / Qry_F", Bench_query.fig12);
    ("fig13a", "bandwidth per depth varying m", Bench_bandwidth.fig13a);
    ("fig13b", "total bandwidth varying k", Bench_bandwidth.fig13b);
    ("tab3", "bandwidth and 50 Mbps latency per dataset", Bench_bandwidth.tab3);
    ("fig14", "secure top-k join time varying m", Bench_join.fig14);
    ("sec11.3", "SecTopK vs secure-kNN baseline", Bench_knn.sec11_3);
    ("ext-rankjoin", "pre-sorted rank join vs cross-product join", Bench_join.ext_rankjoin);
    ("concurrency", "S2 round trips & latency vs concurrent clients (round scheduler)", Bench_concurrency.run);
    ("store", "durable index: build/publish, cold-open vs warm-cache query", Bench_store.run);
    ("shard", "scatter-gather throughput vs shard count (1/2/4 shards)", Bench_shard.run);
    ("micro", "micro-benchmarks of the crypto substrate", Bench_micro.run);
    ("ablation", "design-choice ablations (sort strategy, blinding, parallel encryption)", Bench_ablation.run)
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--list" args then
    List.iter (fun (id, descr, _) -> Format.printf "%-10s %s@." id descr) experiments
  else begin
    let flag name =
      let rec find = function
        | f :: v :: _ when f = name -> Some v
        | _ :: rest -> find rest
        | [] -> None
      in
      find args
    in
    let only = flag "--only" in
    (match flag "--domains" with
    | Some n -> begin
      match int_of_string_opt n with
      | Some n -> Bench_util.domains := max 1 n
      | None ->
        Format.eprintf "--domains expects an integer, got %S@." n;
        exit 2
    end
    | None -> ());
    (match flag "--transport" with
    | Some "inproc" -> Bench_util.transport := Proto.Ctx.Inproc
    | Some "loopback" -> Bench_util.transport := Proto.Ctx.Loopback
    | Some other ->
      Format.eprintf "--transport expects inproc or loopback, got %S@." other;
      exit 2
    | None -> ());
    (match flag "--rtt" with
    | Some n -> begin
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        Bench_util.rtt_us := Some n;
        (* rtt is charged per round by the Loopback transport only *)
        Bench_util.transport := Proto.Ctx.Loopback
      | _ ->
        Format.eprintf "--rtt expects a non-negative integer (microseconds), got %S@." n;
        exit 2
    end
    | None -> ());
    if List.mem "--no-batching" args then Bench_util.batching := false;
    (match flag "--clients" with
    | Some n -> begin
      match int_of_string_opt n with
      | Some n when n >= 1 -> Bench_util.clients := n
      | _ ->
        Format.eprintf "--clients expects a positive integer, got %S@." n;
        exit 2
    end
    | None -> ());
    if List.mem "--no-coalescing" args then Bench_util.coalescing := false;
    (match flag "--json" with
    | Some dir ->
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
       with Sys_error e ->
         Format.eprintf "--json: cannot create directory %s (%s)@." dir e;
         exit 2);
      Bench_util.json_dir := Some dir
    | None -> ());
    let selected =
      match only with
      | None -> experiments
      | Some id -> List.filter (fun (eid, _, _) -> eid = id) experiments
    in
    if selected = [] then begin
      Format.eprintf "unknown experiment id; use --list@.";
      exit 1
    end;
    Format.printf "SecTopK reproduction benchmarks (key=%d bits, noise=%d bits, blinding=%d bits)@."
      Bench_util.key_bits Bench_util.rand_bits Bench_util.blind_bits;
    (* Count crypto ops for every experiment into the harness collector;
       the per-experiment deltas land in the BENCH_*.json records. *)
    Obs.set_enabled true;
    let (), total =
      Obs.Timer.time (fun () ->
          Obs.with_collector Bench_util.collector (fun () ->
              List.iter
                (fun (id, _, f) ->
                  Bench_util.mark ();
                  let (), t = Obs.Timer.time f in
                  Format.printf "[%s done in %.1fs]@." id t)
                selected))
    in
    Format.printf "@.All experiments done in %.1fs@." total
  end
