(* Shared infrastructure for the experiment harness: key material, scaled
   dataset suite, timing helpers and table printing.

   Scale notes (see DESIGN.md): the paper ran 0.1M-1M-row datasets with
   GMP-backed C++ on a 24-core Xeon; this harness runs a pure-OCaml
   simulator, so row counts are scaled down (a few hundred rows) and the
   crypto uses 128-bit moduli with shortened noise — the same parameter
   regime the paper's own EHL+ FPR analysis uses. Reported shapes
   (linearity in k / m / n, variant orderings, bandwidth growth) are the
   reproduction targets, not absolute times. *)

open Crypto
open Dataset

let key_bits = 128
let rand_bits = 96
let blind_bits = 48
let ehl_s = 4

let rng = Rng.create ~seed:"bench"
let pub, sk = Paillier.keygen ~rand_bits rng ~bits:key_bits

(* --rtt MICROS: simulated per-round latency injected by the in-process
   transport — makes round counts visible as wall-clock, so batching wins
   show up in the timed columns, not only in the rounds columns. *)
let rtt_us : int option ref = ref None

(* --no-batching: force one frame per request (the historical framing) so
   the --rtt sweep can price the round collapse as wall-clock. *)
let batching = ref true

(* --clients N: top of the concurrency sweep axis — the "concurrency"
   experiment runs 1, 2, 4, ... up to N concurrent query clients. *)
let clients = ref 8

(* --no-coalescing: run the concurrency sweep over dedicated per-client
   transports instead of the shared round scheduler (the N x baseline). *)
let coalescing = ref true

(* --domains N: width of the query-side domain pool (results and traces
   are identical for every setting; only wall-clock changes). *)
let domains = ref 1

let fresh_ctx () =
  Proto.Ctx.with_batching
    (Proto.Ctx.of_keys ~blind_bits ~domains:!domains ?rtt_us:!rtt_us
       (Rng.fork rng ~label:"ctx") pub sk)
    !batching

(* The four evaluation datasets of Section 11, scaled.

   Scaled-down stand-ins additionally carry cross-attribute rank
   correlation: on the paper's real datasets NRA halts after a small
   fraction of the rows (hundreds to thousands out of 100k-1M), and
   correlation is what produces that proportion at a few dozen rows.
   Without it, a 60-row uniform relation would be scanned almost fully and
   the halting-depth dependence on k (the driver of Figs 9-11's shapes)
   would be censored by the depth cap. *)
let eval_datasets ~rows =
  let gen name attrs base noise =
    Synthetic.generate ~seed:"bench" ~name ~rows ~attrs (Synthetic.Correlated { base; noise })
  in
  [ gen "insurance" 13 (Synthetic.Zipf { skew = 1.2; max_value = 400 }) 12;
    gen "diabetes" 10 (Synthetic.Gaussian { mean = 450.; stddev = 250.; max_value = 1200 }) 40;
    gen "pamap" 15 (Synthetic.Gaussian { mean = 2400.; stddev = 900.; max_value = 5000 }) 150;
    gen "synthetic" 10 (Synthetic.Gaussian { mean = 500.; stddev = 150.; max_value = 1000 }) 30 ]

(* Harness-wide observability: main.ml enables Obs and installs this
   collector around every experiment, so protocol entry points defer to
   it ([Obs.with_default]) and op counts accumulate here. [mark] is taken
   before each experiment; [emit_json] reports the delta. *)
let collector = Obs.Collector.create ()

let last_mark = ref (Obs.Metrics.snapshot (Obs.Collector.metrics collector))

let mark () = last_mark := Obs.Metrics.snapshot (Obs.Collector.metrics collector)

let ops_since_mark () = Obs.Metrics.sub (Obs.Collector.metrics collector) !last_mark

(* --json DIR: also write every supporting experiment's numbers to
   DIR/BENCH_<id>.json for machine comparison across commits. *)
let json_dir : string option ref = ref None

(* rows: (name, seconds, bytes) — bytes 0 when not applicable.
   [quantiles] names latency histograms (microsecond samples) emitted as
   a "latency_quantiles" block next to the min/mean-style "results"; the
   two answer different questions (throughput estimate vs distribution)
   and the historical estimator stays untouched. *)
let emit_json ?(quantiles = []) ~id rows =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\n  \"id\": \"%s\",\n  \"params\": { \"key_bits\": %d, \"rand_bits\": %d, \
          \"blind_bits\": %d, \"domains\": %d, \"rtt_us\": %d },\n"
         id key_bits rand_bits blind_bits !domains
         (Option.value ~default:0 !rtt_us));
    let ops = ops_since_mark () in
    Buffer.add_string buf "  \"ops\": {";
    List.iteri
      (fun i (op, v) ->
        Buffer.add_string buf
          (Printf.sprintf "%s \"%s\": %d" (if i = 0 then "" else ",") (Obs.Metrics.name op) v))
      (Obs.Metrics.to_alist ops);
    Buffer.add_string buf " },\n";
    (match List.filter (fun (_, h) -> not (Obs.Hist.is_empty h)) quantiles with
    | [] -> ()
    | qs ->
      Buffer.add_string buf "  \"latency_quantiles\": {\n";
      List.iteri
        (fun i (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf
               "    \"%s\": { \"count\": %d, \"p50_us\": %d, \"p95_us\": %d, \"p99_us\": %d, \
                \"max_us\": %d }%s\n"
               name (Obs.Hist.count h)
               (Obs.Hist.quantile h 0.5)
               (Obs.Hist.quantile h 0.95)
               (Obs.Hist.quantile h 0.99)
               (Obs.Hist.max_value h)
               (if i = List.length qs - 1 then "" else ",")))
        qs;
      Buffer.add_string buf "  },\n");
    Buffer.add_string buf "  \"results\": [\n";
    List.iteri
      (fun i (name, seconds, bytes) ->
        Buffer.add_string buf
          (Printf.sprintf "    { \"name\": \"%s\", \"seconds\": %.9f, \"bytes\": %d }%s\n"
             name seconds bytes
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc

let time = Obs.Timer.time

let mean a = if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let header title = Format.printf "@.=== %s ===@." title

let row fmt = Format.printf fmt

(* run one secure query and report (avg s/depth, halting depth, bytes);
   [hist] additionally collects every per-depth wall time as a sample,
   for quantile reporting over whole figure sweeps *)
let run_query ?(sort = Proto.Enc_sort.Blinded) ?max_depth ?hist ~variant rel scoring ~k () =
  let ctx = fresh_ctx () in
  let er, key = Sectopk.Scheme.encrypt ~s:ehl_s (Rng.fork rng ~label:"enc") pub rel in
  let tk = Sectopk.Scheme.token key ~m_total:(Relation.n_attrs rel) scoring ~k in
  let options = { Sectopk.Query.variant; sort; max_depth } in
  let res = Sectopk.Query.run ctx er tk options in
  Option.iter
    (fun h -> Array.iter (Obs.Hist.record_seconds h) res.Sectopk.Query.depth_seconds)
    hist;
  let per_depth = mean res.Sectopk.Query.depth_seconds in
  let bytes = Proto.Channel.bytes_total (Proto.Ctx.channel ctx) in
  let rounds = Proto.Channel.rounds_total (Proto.Ctx.channel ctx) in
  (per_depth, res.Sectopk.Query.halting_depth, bytes, rounds)

(* one-line per-depth latency distribution under a figure's table *)
let quantile_line label h =
  if not (Obs.Hist.is_empty h) then
    row "%s: p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms  (%d samples)@." label
      (float_of_int (Obs.Hist.quantile h 0.5) /. 1000.)
      (float_of_int (Obs.Hist.quantile h 0.95) /. 1000.)
      (float_of_int (Obs.Hist.quantile h 0.99) /. 1000.)
      (float_of_int (Obs.Hist.max_value h) /. 1000.)
      (Obs.Hist.count h)
