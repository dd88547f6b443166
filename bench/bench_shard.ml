(* Scatter-gather scale-out: one logical relation queried through the
   Shard coordinator at 1, 2 and 4 shards.

   The host may have a single core, so the curve measures the
   ALGORITHMIC wins of partitioning, not parallel hardware: the global
   depth barrier advances one row per shard per depth, so the halting
   depth falls like D/s while the whole fleet still pays the flat
   per-depth rounds of one shard (every phase, SecWorst's included, is
   one batch over every live shard's blocks).  The superlinear per-depth terms — SecUpdate's
   |T| x |gamma| grid walk and the checkpoint work (sort + refresh +
   halting test over a T that grows with depth) — shrink with the
   shorter loop, which is where the throughput comes from.  Uniform data
   keeps the unsharded halting depth deep (a large fraction of the rows)
   so those terms dominate.

   Each point records its wall-clock seconds per query and its S1<->S2
   bytes per query.  The bytes are a pure function of the seeded data
   and randomness, so tools/check_shard_scaling.sh gates on them: one
   shard must move at least its floor times the bytes of four shards.
   The seconds are reported but not gated (they drift with the host). *)

open Crypto
open Dataset
open Topk

let rows = 128
let attrs = 3
let k = 3
let queries = 2

let run () =
  Bench_util.header "shard: scatter-gather throughput vs shard count";
  let rel =
    Synthetic.generate ~seed:"bench-shard" ~name:"shardbench" ~rows ~attrs
      (Synthetic.Uniform { lo = 0; hi = 100_000 })
  in
  let scoring = Scoring.sum_of (List.init attrs Fun.id) in
  Bench_util.row "relation %dx%d uniform, k=%d, %d queries per point@." rows attrs k queries;
  let base = ref nan in
  let results =
    List.map
      (fun shards ->
        let data_rng =
          Rng.fork Bench_util.rng ~label:(Printf.sprintf "shard-enc-%d" shards)
        in
        let ers, key =
          Sectopk.Scheme.encrypt_sharded ~s:Bench_util.ehl_s ~shards data_rng
            Bench_util.pub rel
        in
        let tk = Sectopk.Scheme.token key ~m_total:attrs scoring ~k in
        let depth = ref 0 and merges = ref 0 and halted = ref false and bytes = ref 0 in
        let (), seconds =
          Bench_util.time (fun () ->
              for _ = 1 to queries do
                let ctx = Bench_util.fresh_ctx () in
                let res, stats =
                  Shard.run_with_stats ctx ers tk Sectopk.Query.default_options
                in
                bytes := Proto.Channel.bytes_total (Proto.Ctx.channel ctx);
                depth := res.Sectopk.Query.halting_depth;
                halted := res.Sectopk.Query.halted;
                merges := stats.Shard.merge_rounds
              done)
        in
        let per_query = seconds /. float_of_int queries in
        if shards = 1 then base := per_query;
        Bench_util.row
          "  shards=%d  %8.2fs/query  %6.3f q/s  %8d B/query  depth %d/%d halted %b  \
           merge rounds %d  speedup %.2fx@."
          shards per_query (1. /. per_query) !bytes !depth rows !halted !merges
          (!base /. per_query);
        (Printf.sprintf "shards=%d" shards, per_query, !bytes))
      [ 1; 2; 4 ]
  in
  Bench_util.emit_json ~id:"shard" results
