(* The repository benchmark: the real client -> serve-s1 -> serve-s2
   deployment under four workloads (see README.md).

     bench   --workload W --seed N --seconds S --trace 0|1
               one measured run; the last stdout line is the JSON result
     run     --seed N [--out FILE]   every workload, tracing off
     traced  --seed N [--out FILE]   every workload's per-layer split
     diff    --base F.. --candidate F..   compare result files
     proxy   --upstream PORT         the emulated S1 -> S2 link

   Result lines are "workload metric value unit". *)

open Cmdliner
open Benchmark_harness

let work_root = ".bench_work"

(* a scratch directory under the working directory, removed on exit *)
let with_env cli tag f =
  if not (Sys.file_exists cli) then begin
    Printf.eprintf "benchmark: %s not found (build it with dune build first)\n" cli;
    exit 2
  end;
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  Bench.rm_rf work;
  Unix.mkdir work 0o755;
  let env = { Bench.cli; self = Sys.executable_name; work } in
  Fun.protect
    ~finally:(fun () ->
      Proc.stop_all ();
      Bench.rm_rf work)
    (fun () -> f env)

let fmt v = Printf.sprintf "%.10g" v

let lines workload (ms : Bench.metric list) =
  List.map (fun (m : Bench.metric) -> String.concat " " [ workload; m.Bench.name; fmt m.Bench.value; m.Bench.unit ]) ms

let json_of (r : Bench.result) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.Bench.correct
    r.Bench.attempted r.Bench.failed
    (String.concat ", "
       (List.map
          (fun (m : Bench.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Bench.name (num m.Bench.value)
              m.Bench.unit)
          r.Bench.metrics))

(* one run of one workload; notes on wrong answers go to stderr *)
let measure cli w ~seed ~seconds ~trace =
  let name = Workload.to_string w in
  let r =
    with_env cli name (fun env ->
        let spec = Workload.spec w in
        if trace then Bench.per_layer env spec ~seed ~seconds else Bench.e2e env spec ~seed ~seconds)
  in
  List.iter (fun n -> Printf.eprintf "%s: %s\n%!" name n) r.Bench.notes;
  r

let bench cli workload seed seconds trace =
  let r = measure cli (Workload.of_string workload) ~seed ~seconds ~trace in
  List.iter prerr_endline (lines workload (r.Bench.metrics @ r.Bench.extra));
  print_endline (json_of r);
  if not r.Bench.correct then exit 1

(* all four workloads, one after the other *)
let all_workloads cli seed seconds out trace =
  let results =
    List.map
      (fun w ->
        let r = measure cli w ~seed ~seconds ~trace in
        let failed_ratio = float_of_int r.Bench.failed /. float_of_int (max 1 r.Bench.attempted) in
        let ls =
          lines (Workload.to_string w)
            (r.Bench.metrics @ r.Bench.extra
            @ if trace then [] else [ Bench.metric "failed_ratio" "fraction" failed_ratio ])
        in
        List.iter print_endline ls;
        (r, ls))
      Workload.all
  in
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc ->
          List.iter (fun (_, ls) -> List.iter (fun l -> output_string oc (l ^ "\n")) ls) results))
    out;
  if List.exists (fun (r, _) -> not r.Bench.correct) results then exit 1

let proxy upstream =
  Link_proxy.run ~upstream ~on_ready:(fun p ->
      Printf.printf "link proxy listening on 127.0.0.1:%d\n%!" p)

let diff bounds base cand = if not (Diff.run ~bounds ~base ~cand) then exit 1

(* ---- command line ------------------------------------------------------- *)

let cli_arg =
  Arg.(value & opt string "_build/default/bin/topk_cli.exe"
       & info [ "cli" ] ~docv:"EXE" ~doc:"The topk_cli executable to deploy.")

let seed_arg = Arg.(value & opt string "1" & info [ "seed" ] ~doc:"Seed of the data and the token mix.")

let seconds_arg =
  Arg.(value & opt float 10. & info [ "seconds" ] ~doc:"Measured time per run (whole passes).")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Also write the result lines to $(docv).")

let bench_cmd =
  let workload = Arg.(required & opt (some string) None & info [ "workload" ] ~doc:"shallow | deep | wan | ingest.") in
  let trace = Arg.(value & opt int 0 & info [ "trace" ] ~doc:"1: report the per-layer split instead.") in
  Cmd.v
    (Cmd.info "bench" ~doc:"One measured run of one workload; prints the JSON result last.")
    Term.(const (fun cli w seed s t -> bench cli w seed s (t <> 0))
          $ cli_arg $ workload $ seed_arg $ seconds_arg $ trace)

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"End-to-end metrics of every workload, tracing off.")
    Term.(const (fun cli seed s out -> all_workloads cli seed s out false) $ cli_arg $ seed_arg $ seconds_arg $ out_arg)

let traced_cmd =
  Cmd.v (Cmd.info "traced" ~doc:"Per-layer split of every workload.")
    Term.(const (fun cli seed s out -> all_workloads cli seed s out true) $ cli_arg $ seed_arg $ seconds_arg $ out_arg)

let proxy_cmd =
  Cmd.v
    (Cmd.info "proxy"
       ~doc:"Relay an ephemeral 127.0.0.1 port, announced on stdout, to an upstream port over \
             the emulated 2 ms / 50 Mbit/s link.")
    Term.(const proxy
          $ Arg.(required & opt (some int) None & info [ "upstream" ] ~doc:"Upstream port on 127.0.0.1."))

let diff_cmd =
  let files name doc = Arg.(non_empty & opt_all file [] & info [ name ] ~doc) in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare base and candidate result files under BENCHMARK.json's bounds.")
    Term.(const diff
          $ Arg.(value & opt file "BENCHMARK.json" & info [ "bounds" ] ~doc:"The benchmark definition.")
          $ files "base" "A result file of the base commit (repeatable)."
          $ files "candidate" "A result file of the candidate (repeatable).")

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupted run still stops its daemons *)
  at_exit Proc.stop_all;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "benchmark" ~doc:"The SecTopK deployment benchmark.")
          [ bench_cmd; run_cmd; traced_cmd; diff_cmd; proxy_cmd ]))
