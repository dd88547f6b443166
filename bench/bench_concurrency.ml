(* Rounds and latency vs concurrent clients: N identical top-k queries
   drive one shared round scheduler (serve-s1's coalescing path) over a
   simulated-RTT link. The headline number is total S2 trips vs the
   single-client trip budget: dedicated transports pay N x the budget,
   merged frames keep the total near 1 x because the RTT sleep resumes
   every parked query at once and the all-parked rule ships the next
   merged trip as soon as the last one parks.

   --clients N        top of the sweep axis (1,2,4,... up to N)
   --no-coalescing    dedicated per-client transports instead (the N x
                      baseline; Inproc charges the same RTT per round)
   --rtt MICROS       link latency (default here: 10ms)

   The uncoalesced mode reports sum-of-rounds as its trip count: every
   per-client round is its own link round trip. Results are checked
   byte-identical to an in-process baseline in both modes. *)

open Dataset
open Topk
open Proto

let seed = "bench-conc"
let key_bits = Bench_util.key_bits
let rand_bits = Bench_util.rand_bits
let blind_bits = Bench_util.blind_bits
let k = 2

(* Big enough that the window-timeout rule alone never paces trips: on a
   busy machine the per-round S1 compute skew across clients stays well
   under this, so trips ship on the all-parked rule and a straggler
   cannot split a round into partial frames. *)
let window_us = 200_000

let rel =
  Synthetic.generate ~seed:"bench-conc" ~name:"conc" ~rows:12 ~attrs:3
    (Synthetic.Correlated { base = Synthetic.Zipf { skew = 1.2; max_value = 200 }; noise = 10 })

let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = false }

(* Everything a query leaves behind, hashed: halting depth plus the raw
   top-k ciphertexts. Byte-identical across transports by construction;
   the digest pins it per bench run too. *)
let digest_of (res : Sectopk.Query.result) =
  let nat_str (c : Crypto.Paillier.ciphertext) = Bignum.Nat.to_string (c :> Bignum.Nat.t) in
  let parts =
    string_of_int res.Sectopk.Query.halting_depth
    :: List.concat_map
         (fun (it : Enc_item.scored) ->
           nat_str it.worst :: nat_str it.best :: Array.to_list (Array.map nat_str it.seen))
         res.Sectopk.Query.top
  in
  Digest.to_hex (Digest.string (String.concat "," parts))

module Latch = struct
  type t = { lock : Mutex.t; cond : Condition.t; mutable n : int }

  let create n = { lock = Mutex.create (); cond = Condition.create (); n }

  let arrive t =
    Mutex.lock t.lock;
    t.n <- t.n - 1;
    if t.n <= 0 then Condition.broadcast t.cond;
    Mutex.unlock t.lock

  let wait t =
    Mutex.lock t.lock;
    while t.n > 0 do
      Condition.wait t.cond t.lock
    done;
    Mutex.unlock t.lock
end

let counter_of reg name =
  match List.assoc_opt name (Obs.Registry.snapshot reg) with
  | Some (Obs.Registry.Counter v) -> v
  | _ -> 0

type point = {
  clients : int;
  trips : int;  (** total S2 link round trips during the query phase *)
  rounds_per_query : int;  (** per-client protocol rounds — mode-invariant *)
  p50_us : int;
  p95_us : int;
  p99_us : int;
}

(* One sweep point: [n] clients provision, open and build their contexts,
   sync on a latch, then run the query phase together. Trips are counted
   strictly between the latches so setup opens and teardown closes don't
   blur the budget; uncoalesced trips are the summed per-client rounds
   (one link trip per round on a dedicated transport). *)
let run_point ~coalescing ~rtt_us ~baseline n =
  let reg = Obs.Registry.create () in
  let sched =
    if not coalescing then None
    else begin
      (* one derivation per point, as serve-s2 derives once per connection *)
      let start = S2_server.provision hello in
      let st = S2_server.mux_state ~make:(fun ~session:_ -> start ()) in
      Some (Sched.create ~window_us ~rtt_us ~registry:reg ~backend:(S2_server.handle_mux_ops st) ())
    end
  in
  let ready = Latch.create n
  and go = Latch.create 1
  and finished = Latch.create n
  and fin = Latch.create 1 in
  let lat = Array.make n 0. in
  let rounds = Array.make n 0 in
  let digests = Array.make n "" in
  let doms =
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
            let session, mode =
              match sched with
              | Some s -> let id = Sched.open_query s in (Some id, Ctx.Mux (s, id))
              | None -> (None, Ctx.Inproc)
            in
            let ctx = Ctx.of_keys ~blind_bits ~mode ~rtt_us ctx_rng pub sk in
            ignore sk;
            let er, key = Sectopk.Scheme.encrypt ~s:Bench_util.ehl_s data_rng pub rel in
            let tk =
              Sectopk.Scheme.token key ~m_total:(Relation.n_attrs rel)
                (Scoring.sum_of [ 0; 1; 2 ]) ~k
            in
            Latch.arrive ready;
            Latch.wait go;
            let t0 = Unix.gettimeofday () in
            let res = Sectopk.Query.run ctx er tk Sectopk.Query.default_options in
            lat.(i) <- Unix.gettimeofday () -. t0;
            rounds.(i) <- Channel.rounds_total (Ctx.channel ctx);
            digests.(i) <- digest_of res;
            Latch.arrive finished;
            Latch.wait fin;
            match (sched, session) with
            | Some s, Some id -> Sched.close_query s id
            | _ -> ()))
  in
  Latch.wait ready;
  let trips0 = counter_of reg "coalesced_rounds" in
  Latch.arrive go;
  Latch.wait finished;
  let trips1 = counter_of reg "coalesced_rounds" in
  Latch.arrive fin;
  Array.iter Domain.join doms;
  Option.iter Sched.stop sched;
  Array.iter
    (fun d ->
      if d <> baseline then failwith "concurrency: query result diverged from baseline")
    digests;
  let h = Obs.Hist.create () in
  Array.iter (Obs.Hist.record_seconds h) lat;
  let q p = Obs.Hist.quantile h p in
  {
    clients = n;
    trips = (if coalescing then trips1 - trips0 else Array.fold_left ( + ) 0 rounds);
    rounds_per_query = rounds.(0);
    p50_us = q 0.5;
    p95_us = q 0.95;
    p99_us = q 0.99;
  }

let emit_json ~coalescing ~rtt_us ~single points =
  match !Bench_util.json_dir with
  | None -> ()
  | Some dir ->
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\n  \"id\": \"concurrency\",\n  \"params\": { \"key_bits\": %d, \"rand_bits\": %d, \
          \"rtt_us\": %d, \"window_us\": %d, \"coalescing\": %b },\n\
          \  \"single_client_rounds\": %d,\n  \"results\": [\n"
         key_bits rand_bits rtt_us window_us coalescing single);
    List.iteri
      (fun i p ->
        Buffer.add_string buf
          (Printf.sprintf
             "    { \"clients\": %d, \"trips\": %d, \"rounds_per_query\": %d, \"p50_us\": %d, \
              \"p95_us\": %d, \"p99_us\": %d }%s\n"
             p.clients p.trips p.rounds_per_query p.p50_us p.p95_us p.p99_us
             (if i = List.length points - 1 then "" else ",")))
      points;
    Buffer.add_string buf "  ]\n}\n";
    let path = Filename.concat dir "BENCH_concurrency.json" in
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc

let run () =
  let rtt_us = Option.value ~default:10_000 !Bench_util.rtt_us in
  let coalescing = !Bench_util.coalescing in
  let top = max 1 !Bench_util.clients in
  let axis =
    let std = List.filter (fun n -> n <= top) [ 1; 2; 4; 8 ] in
    if List.mem top std then std else std @ [ top ]
  in
  Bench_util.header
    (Printf.sprintf "concurrency: S2 trips & latency vs clients (%s, rtt %.1fms)"
       (if coalescing then "coalesced" else "dedicated transports")
       (float_of_int rtt_us /. 1000.));
  (* ground truth for every client's digest: the plain in-process path *)
  let baseline =
    let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
    let ctx = Ctx.of_keys ~blind_bits ~mode:Ctx.Inproc ctx_rng pub sk in
    let er, key = Sectopk.Scheme.encrypt ~s:Bench_util.ehl_s data_rng pub rel in
    let tk =
      Sectopk.Scheme.token key ~m_total:(Relation.n_attrs rel) (Scoring.sum_of [ 0; 1; 2 ]) ~k
    in
    ignore sk;
    digest_of (Sectopk.Query.run ctx er tk Sectopk.Query.default_options)
  in
  let points = List.map (run_point ~coalescing ~rtt_us ~baseline) axis in
  Bench_util.row "%8s %8s %12s %13s %9s %9s %9s@." "clients" "trips" "trips/query"
    "rounds/query" "p50 ms" "p95 ms" "p99 ms";
  List.iter
    (fun p ->
      Bench_util.row "%8d %8d %12.1f %13d %9.1f %9.1f %9.1f@." p.clients p.trips
        (float_of_int p.trips /. float_of_int p.clients)
        p.rounds_per_query
        (float_of_int p.p50_us /. 1000.)
        (float_of_int p.p95_us /. 1000.)
        (float_of_int p.p99_us /. 1000.))
    points;
  let single = (List.hd points).trips in
  (match List.rev points with
  | last :: _ when coalescing && last.clients > 1 ->
    Bench_util.row "%d clients: %d trips vs 2x single-client budget %d -- %s@." last.clients
      last.trips (2 * single)
      (if last.trips <= 2 * single then "coalescing holds" else "OVER BUDGET")
  | _ -> ());
  Bench_util.row "results: every client byte-identical to the in-process baseline@.";
  emit_json ~coalescing ~rtt_us ~single points
