(* Serving-path costs the paper's in-memory evaluation does not cover:
   index build + atomic publish, size on disk, and cold-open vs
   warm-cache latency of a query answered through the lazily backed
   on-disk relation (lib/store). The bytes column reports what each
   phase actually touched: disk footprint for the build, block reads
   (Obs Store_read_bytes) for the queries — the cold/warm gap and the
   read volume staying below the footprint are the shapes to keep. *)

open Crypto
open Dataset
open Topk
open Bench_util

let read_bytes () =
  Obs.Metrics.get (Obs.Collector.metrics collector) Obs.Metrics.Store_read_bytes


let run () =
  header "store: durable index (build/publish, cold-open vs warm-cache query)";
  let rows = 60 and attrs = 4 in
  let rel =
    Synthetic.generate ~seed:"bench-store" ~name:"store" ~rows ~attrs
      (Synthetic.Correlated
         { base = Synthetic.Gaussian { mean = 500.; stddev = 150.; max_value = 1000 };
           noise = 30 })
  in
  let er, key = Sectopk.Scheme.encrypt ~s:ehl_s (Rng.fork rng ~label:"store-enc") pub rel in
  let tk =
    Sectopk.Scheme.token key ~m_total:attrs (Scoring.sum_of (List.init attrs Fun.id)) ~k:5
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_store_%d" (Unix.getpid ()))
  in
  let (), t_build = time (fun () -> Store.build ~dir pub er) in
  let st, t_open = time (fun () -> Store.open_index ~dir pub) in
  let disk = Store.disk_bytes st in
  let query relation =
    let ctx = fresh_ctx () in
    ignore (Sectopk.Query.run ctx relation tk Sectopk.Query.default_options)
  in
  let b0 = read_bytes () in
  let (), t_cold = time (fun () -> query (Store.relation st)) in
  let cold_bytes = read_bytes () - b0 in
  let b1 = read_bytes () in
  let (), t_warm = time (fun () -> query (Store.relation st)) in
  let warm_bytes = read_bytes () - b1 in
  (* extra warm trials feed a latency histogram: the single-shot seconds
     column above stays the committed estimator, the quantiles describe
     the steady-state distribution *)
  let warm_hist = Obs.Hist.create () in
  Obs.Hist.record_seconds warm_hist t_warm;
  for _ = 2 to 5 do
    let (), t = time (fun () -> query (Store.relation st)) in
    Obs.Hist.record_seconds warm_hist t
  done;
  let (), t_mem = time (fun () -> query er) in
  Store.close st;
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  row "%16s %12s %12s@." "phase" "seconds" "bytes";
  let results =
    [ ("build_publish", t_build, disk);
      ("open_validate", t_open, 0);
      ("cold_query", t_cold, cold_bytes);
      ("warm_query", t_warm, warm_bytes);
      ("memory_query", t_mem, 0) ]
  in
  List.iter (fun (name, t, b) -> row "%16s %12.4f %12d@." name t b) results;
  row "halting depth reads a prefix: cold read %d of %d on-disk bytes@." cold_bytes disk;
  quantile_line "warm query latency" warm_hist;
  emit_json ~quantiles:[ ("warm_query", warm_hist) ] ~id:"store" results
