(* Command-line driver for the SecTopK reproduction.

   Subcommands:
     demo     - end-to-end secure top-k query on a generated dataset
     nra      - plaintext NRA run (halting depth, answers, oracle check)
     join     - secure top-k join on two generated relations
     keysize  - encrypted-database size estimates for given parameters

   All randomness is seeded; the same invocation reproduces the same
   output. *)

open Cmdliner
open Crypto
open Dataset
open Topk

let dist_of_string max_value = function
  | "uniform" -> Synthetic.Uniform { lo = 0; hi = max_value }
  | "gaussian" ->
    Synthetic.Gaussian
      { mean = float_of_int max_value /. 2.; stddev = float_of_int max_value /. 6.; max_value }
  | "zipf" -> Synthetic.Zipf { skew = 1.2; max_value }
  | "correlated" ->
    Synthetic.Correlated { base = Synthetic.Uniform { lo = 0; hi = max_value }; noise = max_value / 20 }
  | s -> invalid_arg ("unknown distribution: " ^ s)

let rows_arg = Arg.(value & opt int 40 & info [ "rows"; "n" ] ~doc:"Number of objects.")
let attrs_arg = Arg.(value & opt int 3 & info [ "attrs" ] ~doc:"Number of attributes.")
let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Result size k.")
let m_arg = Arg.(value & opt int 3 & info [ "m" ] ~doc:"Scoring attributes (first m).")
let seed_arg = Arg.(value & opt string "cli" & info [ "seed" ] ~doc:"Deterministic seed.")
let bits_arg = Arg.(value & opt int 128 & info [ "key-bits" ] ~doc:"Paillier modulus width.")

let dist_arg =
  Arg.(value & opt string "uniform"
       & info [ "dist" ] ~doc:"Value distribution: uniform | gaussian | zipf | correlated.")

let variant_arg =
  Arg.(value & opt string "elim"
       & info [ "variant" ] ~doc:"Query variant: full | elim | batched:<p>.")

let variant_of_string s =
  match String.split_on_char ':' s with
  | [ "full" ] -> Sectopk.Query.Full
  | [ "elim" ] -> Sectopk.Query.Elim
  | [ "batched"; p ] -> Sectopk.Query.Batched (int_of_string p)
  | _ -> invalid_arg ("unknown variant: " ^ s)

let make_rel ~seed ~rows ~attrs ~dist =
  Synthetic.generate ~seed ~name:"cli" ~rows ~attrs (dist_of_string 100 dist)

(* ---------------- demo ---------------- *)

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> invalid_arg ("--s2 expects HOST:PORT, got " ^ s)
  | Some i ->
    let host = String.sub s 0 i
    and port = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    let host = if host = "" then "127.0.0.1" else host in
    Unix.ADDR_INET ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)

(* The demo provisions both parties from the seed ([Ctx.provision]). A
   daemon S2 — spawned child or a remote [serve-s2] — replays the same
   Hello and is reached the way serve-s1 reaches it: a round scheduler
   over the connection, with this query parked on it as one mux
   session. [stop] retires the scheduler, scrapes the daemon's op
   counters on the same connection and hangs up. *)
let remote_s2 keys fd pid =
  let sched = Proto.Sched.create ~backend:(Proto.Sched.socket_backend keys fd) () in
  let session = Proto.Sched.open_query sched in
  let stop () =
    Proto.Sched.close_query sched session;
    Proto.Sched.stop sched;
    let ops = Obs.Registry.op_counters (Proto.Transport.stats fd) in
    Unix.close fd;
    Option.iter (fun pid -> ignore (Unix.waitpid [] pid)) pid;
    ops
  in
  (Proto.Ctx.Mux (sched, session), stop)

let demo rows attrs k m seed bits dist variant domains transport s2_addr metrics trace_out =
  if metrics || trace_out <> None then Obs.set_enabled true;
  let rel = make_rel ~seed ~rows ~attrs ~dist in
  let pub, sk, ctx_rng, data_rng = Proto.Ctx.provision ~seed ~key_bits:bits ~rand_bits:96 () in
  let derived = Proto.Ctx.derive ctx_rng pub sk in
  let hello =
    { Proto.Wire.seed; key_bits = bits; rand_bits = Some 96; obs = Obs.is_enabled () }
  in
  let mode, stop_s2 =
    match (s2_addr, transport) with
    | Some addr, _ ->
      remote_s2 (Proto.Ctx.keys derived)
        (Proto.Transport.connect_tcp (parse_addr addr) hello) None
    | None, `Socket ->
      let fd, pid = Proto.Transport.spawn_daemon hello in
      remote_s2 (Proto.Ctx.keys derived) fd (Some pid)
    | None, `Inproc -> (Proto.Ctx.Inproc, fun () -> [])
  in
  let (er, key), enc_s =
    Obs.Timer.time (fun () -> Sectopk.Scheme.encrypt ~s:4 data_rng pub rel)
  in
  Format.printf "encrypted %d x %d in %.2fs (%d KB)@." rows attrs enc_s
    (Sectopk.Scheme.size_bytes pub er / 1024);
  let scoring = Scoring.sum_of (List.init (min m attrs) Fun.id) in
  let token = Sectopk.Scheme.token key ~m_total:attrs scoring ~k in
  let ctx = Proto.Ctx.of_derived ~blind_bits:48 ~domains ~mode derived in
  Format.printf "transport: %s@." (Proto.Ctx.transport_name ctx);
  let res, query_s =
    Obs.Timer.time (fun () ->
        Sectopk.Query.run ctx er token
          { Sectopk.Query.default_options with variant = variant_of_string variant })
  in
  let daemon_ops = stop_s2 () in
  Format.printf "query: %.2fs, halting depth %d/%d@." query_s
    res.Sectopk.Query.halting_depth rows;
  let ids = List.init rows (Relation.object_id rel) in
  let reals = Sectopk.Client.real_results ~sk ctx key ~ids res in
  List.iter (fun (id, w, b) -> Format.printf "  %-6s score in [%d, %d]@." id w b) reals;
  let oids =
    List.map (fun (id, _, _) -> int_of_string (String.sub id 1 (String.length id - 1))) reals
  in
  Format.printf "oracle-valid: %b@." (Nra.valid_answer rel scoring ~k oids);
  let ch = Proto.Ctx.channel ctx in
  Format.printf "traffic: %d KB, %d rounds@."
    (Proto.Channel.bytes_total ch / 1024)
    (Proto.Channel.rounds_total ch);
  if metrics then begin
    Format.printf "@.per-protocol observability (query only):@.";
    Obs.Report.print ctx.Proto.Ctx.obs;
    if daemon_ops <> [] then begin
      Format.printf "@.S2 daemon-side operation counters:@.";
      List.iter (fun (name, v) -> Format.printf "  %-16s %d@." name v) daemon_ops
    end
  end;
  Option.iter
    (fun file ->
      Obs.Chrome.write ctx.Proto.Ctx.obs ~file;
      Format.printf "chrome trace written to %s@." file)
    trace_out

let domains_arg =
  Arg.(value & opt int 1 & info [ "domains" ] ~doc:"Query-side domain pool width.")

let transport_arg =
  Arg.(value & opt (enum [ ("inproc", `Inproc); ("socket", `Socket) ]) `Inproc
       & info [ "transport" ]
           ~doc:"Transport to S2: inproc (S2 in this process, every message through \
                 the wire codec) | socket (spawns a child daemon and reaches it \
                 through the round scheduler, like --s2).")

let s2_arg =
  Arg.(value & opt (some string) None
       & info [ "s2" ] ~docv:"HOST:PORT"
           ~doc:"Connect to a running 'serve-s2' daemon instead of hosting S2 locally.")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the per-protocol op-count report.")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON of the query spans to $(docv).")

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run a full secure top-k query end to end.")
    Term.(const demo $ rows_arg $ attrs_arg $ k_arg $ m_arg $ seed_arg $ bits_arg $ dist_arg
          $ variant_arg $ domains_arg $ transport_arg $ s2_arg $ metrics_arg $ trace_out_arg)

(* ---------------- serve-s2 ---------------- *)

(* SIGINT/SIGTERM request a graceful drain: the flag flips, the blocking
   accept returns with EINTR, and the loop exits — but an in-flight
   connection always runs to completion first (Wire frame I/O restarts on
   EINTR, so a signal never tears a frame mid-read).

   Each connection gets its own domain: a coalescing serve-s1 holds one
   scheduler connection open for its whole lifetime, so a sequential
   accept loop would lock out every later client (a second S1, a stats
   scrape). A connection that finds no free domain is closed, and the
   loop keeps accepting. Responder state stays per-connection; the
   registry is the only thing shared, and it locks internally. *)
let serve_s2 port once =
  (* a write to a peer that has gone must fail that connection with
     EPIPE, not kill the daemon with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  (* daemon-level telemetry, scrapeable with a bare Stats_req as the first
     frame on a fresh connection ('topk_cli stats') *)
  let reg = Obs.Registry.create () in
  let connections_c = Obs.Registry.counter reg "connections" in
  let accept_errors_c = Obs.Registry.counter reg "accept_errors" in
  let warmup_g = Obs.Registry.gauge reg "comb_warmup_seconds" in
  let combs_g = Obs.Registry.gauge reg "combs_built" in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  (match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> Format.printf "S2 daemon listening on 127.0.0.1:%d@.%!" p
  | _ -> ());
  (* Live connection domains plus a finished-awaiting-join list, reaped
     on each accept: a long-lived daemon taking periodic stats scrapes
     must not accumulate one dead handle per connection for the process
     lifetime. Spawning happens under the lock, and a finishing domain
     retires its own entry under the same lock, so the retire can never
     miss an entry the spawner has not inserted yet. *)
  let conns = ref [] in
  let reaped = ref [] in
  let doms_lock = Mutex.create () in
  let next_id = ref 0 in
  let serve_conn id fd =
    (try
       Proto.S2_server.serve_fd fd ~registry:reg
         ~on_ready:(fun dt ->
           (* warm-up is scrapeable, not just a line lost in stdout:
              latest duration + the fixed-base combs the process holds,
              counted after the provisioning (a connection whose keys
              an earlier one derived builds none) *)
           Obs.Registry.set warmup_g dt;
           Obs.Registry.set combs_g (float_of_int (Bignum.Fixed_base.cached_count ()));
           Format.printf "S2: keys provisioned, combs warmed in %.0f ms@.%!"
             (dt *. 1000.))
     with e -> Format.eprintf "S2: connection failed: %s@." (Printexc.to_string e));
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Format.printf "S2: connection closed@.%!";
    Mutex.lock doms_lock;
    let mine, rest = List.partition (fun (id', _) -> id' = id) !conns in
    conns := rest;
    reaped := List.rev_append (List.map snd mine) !reaped;
    Mutex.unlock doms_lock
  in
  let rec loop () =
    if not !stop then
      match Proto.Transport.accept ~errors:accept_errors_c sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop () (* re-check the flag *)
      | None -> loop ()
      | Some (fd, _peer) ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Obs.Registry.inc connections_c;
        Format.printf "S2: connection accepted@.%!";
        let spawned =
          Mutex.protect doms_lock (fun () ->
              let id = !next_id in
              incr next_id;
              match Domain.spawn (fun () -> serve_conn id fd) with
              | d ->
                conns := (id, d) :: !conns;
                true
              | exception Failure _ -> false)
        in
        if not spawned then begin
          (* every domain slot of the runtime is taken: drop this
             connection and keep serving the others *)
          Format.eprintf "S2: connection refused: no free domain@.";
          try Unix.close fd with Unix.Unix_error _ -> ()
        end;
        let finished =
          Mutex.lock doms_lock;
          let r = !reaped in
          reaped := [];
          Mutex.unlock doms_lock;
          r
        in
        List.iter Domain.join finished;
        if not once then loop ()
  in
  loop ();
  (* drain: every accepted connection still runs to completion *)
  let ds =
    Mutex.lock doms_lock;
    let ds = List.rev_append (List.map snd !conns) !reaped in
    conns := [];
    reaped := [];
    Mutex.unlock doms_lock;
    ds
  in
  List.iter Domain.join ds;
  Unix.close sock;
  if !stop then Format.printf "S2: drained, listener closed@.%!"

let port_arg =
  Arg.(value & opt int 7787 & info [ "port" ] ~doc:"TCP port to listen on (0 = ephemeral).")

let once_arg =
  Arg.(value & flag & info [ "once" ] ~doc:"Serve a single connection, then exit.")

let serve_s2_cmd =
  Cmd.v
    (Cmd.info "serve-s2"
       ~doc:"Run the S2 key-holder daemon (the second cloud of the two-server model). \
             Clients provision it with their seed via the Hello handshake; \
             pair with 'demo --s2 HOST:PORT'.")
    Term.(const serve_s2 $ port_arg $ once_arg)

(* ---------------- the three-process deployment ----------------

   build-index writes the encrypted relation to a store directory;
   serve-s1 serves it to clients, coalescing every query's rounds onto
   one connection to a serve-s2 key-holder (or hosting S2 in-process);
   query is the client. All three
   derive key material from the same seed via Ctx.provision, so the
   served results are byte-identical to the in-process demo. *)

let or_file_error f =
  try f () with
  | Store.Error e ->
    Format.eprintf "store error: %s@." (Store.error_message e);
    exit 4
  | Uci_shape.Csv_error { line; reason } ->
    Format.eprintf "csv error: line %d: %s@." line reason;
    exit 4

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

let build_index rows attrs seed bits dist csv store_dir key_out block_records shards =
  or_file_error (fun () ->
      if shards <= 0 then begin
        Format.eprintf "error: --shards must be positive@.";
        exit 2
      end;
      let rel, from_csv =
        match csv with
        | Some path ->
          let rel, _file_ids = Uci_shape.load_csv path in
          (rel, true)
        | None -> (make_rel ~seed ~rows ~attrs ~dist, false)
      in
      let pub, _sk, _ctx_rng, data_rng = Proto.Ctx.provision ~seed ~key_bits:bits ~rand_bits:96 () in
      let key =
        if shards = 1 then begin
          (* the historical unsharded path, byte-for-byte *)
          let (er, key), enc_s =
            Obs.Timer.time (fun () -> Sectopk.Scheme.encrypt ~s:4 data_rng pub rel)
          in
          Store.build ~block_records ~dir:store_dir pub er;
          let st = Store.open_index ~dir:store_dir pub in
          Format.printf "built generation %d: %d x %d encrypted in %.2fs, %d KB on disk@."
            (Store.generation st) (Store.n_rows st) (Store.n_attrs st) enc_s
            (Store.disk_bytes st / 1024);
          Store.close st;
          key
        end
        else begin
          let (ers, key), enc_s =
            Obs.Timer.time (fun () ->
                Sectopk.Scheme.encrypt_sharded ~s:4 ~shards data_rng pub rel)
          in
          Store.Sharded.build ~block_records ~dir:store_dir pub ers;
          let sts = Store.Sharded.open_index ~dir:store_dir pub in
          let total f = Array.fold_left (fun acc st -> acc + f st) 0 sts in
          Format.printf "built %d shards: %d x %d encrypted in %.2fs, %d KB on disk@."
            shards (total Store.n_rows) (Store.n_attrs sts.(0)) enc_s
            (total Store.disk_bytes / 1024);
          Array.iter Store.close sts;
          key
        end
      in
      if from_csv then
        Format.printf "note: csv rows are indexed positionally (object ids o0..o%d)@."
          (Relation.n_rows rel - 1);
      match key_out with
      | Some path ->
        write_file path (Sectopk.Codec.encode_secret_key key);
        Format.printf "client key written to %s@." path
      | None -> ())

let store_arg =
  Arg.(required & opt (some string) None
       & info [ "store" ] ~docv:"DIR" ~doc:"On-disk index directory.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE"
           ~doc:"Ingest a UCI-shaped CSV file (id,attr1..attrM) instead of generating data.")

let key_out_arg =
  Arg.(value & opt (some string) None
       & info [ "key-out" ] ~docv:"FILE"
           ~doc:"Write the client secret key (Codec blob) to $(docv). Keep it off the \
                 server: S1 must never hold the list-permutation key.")

let block_records_arg =
  Arg.(value & opt int 16
       & info [ "block-records" ] ~doc:"Records per checksummed segment block.")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"N"
           ~doc:"Partition the row space into $(docv) shards (PRP placement, one \
                 secret key). serve-s1 detects a sharded index automatically and \
                 fans queries out over all shards; 1 builds the classic single \
                 store.")

let build_index_cmd =
  Cmd.v
    (Cmd.info "build-index"
       ~doc:"Encrypt a dataset and publish it as an on-disk index (the data-owner step).")
    Term.(const build_index $ rows_arg $ attrs_arg $ seed_arg $ bits_arg $ dist_arg $ csv_arg
          $ store_arg $ key_out_arg $ block_records_arg $ shards_arg)

let serve_s1 store_dir port seed bits variant workers queue_depth s2_addr metrics log_json
    slow_query_ms trace_sample trace_dir coalesce_window_us =
  (* as in serve-s2: a vanished peer is an EPIPE, not a SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  or_file_error (fun () ->
      let qlog =
        { Server.Qlog.log_json; slow_query_ms; trace_sample; trace_dir }
      in
      (* slow-query span reports and sampled traces render per-query
         collectors, which only fill when Obs is on *)
      if metrics || Server.Qlog.needs_spans qlog then Obs.set_enabled true;
      let pub, _, _, _ = Proto.Ctx.provision ~seed ~key_bits:bits ~rand_bits:96 () in
      (* pay the one-time table builds now, not inside the first query *)
      let (), warm_s =
        Obs.Timer.time (fun () -> Crypto.Paillier.precompute pub)
      in
      Format.printf "S1: combs warmed in %.0f ms@.%!" (warm_s *. 1000.);
      let index =
        if Store.Sharded.is_sharded ~dir:store_dir then
          Server.Sharded (Store.Sharded.open_index ~dir:store_dir pub)
        else Server.Single (Store.open_index ~dir:store_dir pub)
      in
      let stores =
        match index with Server.Single st -> [| st |] | Server.Sharded sts -> sts
      in
      let cfg =
        {
          Server.default_config with
          seed;
          key_bits = bits;
          workers;
          queue_depth;
          options =
            { Sectopk.Query.default_options with variant = variant_of_string variant };
          s2 = (match s2_addr with
               | Some a -> Server.Tcp (parse_addr a)
               | None -> Server.Local);
          qlog;
          coalesce_window_us;
        }
      in
      let t = Server.start ~port cfg index in
      (* Server.start warmed the combs for the whole serving set and put
         comb_warmup_seconds / combs_built / shards on the registry *)
      let total_rows = Array.fold_left (fun acc st -> acc + Store.n_rows st) 0 stores in
      (match index with
      | Server.Single st ->
        Format.printf "S1 serving %d x %d (generation %d) on 127.0.0.1:%d@.%!"
          (Store.n_rows st) (Store.n_attrs st) (Store.generation st) (Server.port t)
      | Server.Sharded sts ->
        Format.printf "S1 serving %d x %d over %d shards on 127.0.0.1:%d@.%!" total_rows
          (Store.n_attrs sts.(0)) (Array.length sts) (Server.port t));
      let stop = ref false in
      let on_signal = Sys.Signal_handle (fun _ -> stop := true) in
      Sys.set_signal Sys.sigterm on_signal;
      Sys.set_signal Sys.sigint on_signal;
      while not !stop do
        try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Format.printf "S1: draining@.%!";
      Server.shutdown t;
      let st = Server.stats t in
      Format.printf "S1: drained — %d served, %d busy, %d errors@.%!" st.Server.served
        st.Server.busy st.Server.errors;
      if metrics && not (Obs.Collector.is_empty (Server.obs t)) then
        Obs.Report.print ~times:false (Server.obs t);
      Array.iter Store.close stores)

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Worker domains executing queries.")

let queue_depth_arg =
  Arg.(value & opt int 8
       & info [ "queue-depth" ]
           ~doc:"Admitted-but-waiting bound beyond free workers; overflow answers Busy.")

let log_json_arg =
  Arg.(value & opt (some string) None
       & info [ "log-json" ] ~docv:"FILE"
           ~doc:"Append one JSON line per query (token shape, outcome, rounds, \
                 bytes, queue/exec latency) to $(docv).")

let slow_query_ms_arg =
  Arg.(value & opt (some float) None
       & info [ "slow-query-ms" ] ~docv:"MS"
           ~doc:"Also log a full span report for queries whose execution wall \
                 time exceeds $(docv) milliseconds.")

let trace_sample_arg =
  Arg.(value & opt (some int) None
       & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Capture every $(docv)th query's Chrome trace into a rotating \
                 directory (see --trace-dir).")

let trace_dir_arg =
  Arg.(value & opt string Server.Qlog.default_config.Server.Qlog.trace_dir
       & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"Directory for sampled traces (rotates over a fixed number of \
                 slots).")

let coalesce_window_arg =
  Arg.(value & opt int Server.default_config.Server.coalesce_window_us
       & info [ "coalesce-window-us" ] ~docv:"US"
           ~doc:"Round-coalescing window in microseconds: concurrent queries' \
                 S2 round trips parked within it merge into one frame (a trip \
                 also ships as soon as every in-flight query is parked). 0 \
                 ships whatever is parked on every wake.")

let serve_s1_cmd =
  Cmd.v
    (Cmd.info "serve-s1"
       ~doc:"Serve an on-disk index to query clients (the S1 front-end daemon). \
             Pair with 'serve-s2' via --s2 HOST:PORT for the full two-cloud split; \
             SIGTERM drains gracefully.")
    Term.(const serve_s1 $ store_arg $ port_arg $ seed_arg $ bits_arg $ variant_arg
          $ workers_arg $ queue_depth_arg $ s2_arg $ metrics_arg $ log_json_arg
          $ slow_query_ms_arg $ trace_sample_arg $ trace_dir_arg $ coalesce_window_arg)

let query_client s1_addr key_file k m seed bits =
  or_file_error (fun () ->
      let pub, sk, ctx_rng, _ = Proto.Ctx.provision ~seed ~key_bits:bits ~rand_bits:96 () in
      let ctx = Proto.Ctx.of_keys ~blind_bits:48 ~mode:Proto.Ctx.Inproc ctx_rng pub sk in
      let wkeys = Proto.Transport.keys ctx.Proto.Ctx.transport in
      let key = Sectopk.Codec.decode_secret_key (read_file key_file) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (parse_addr s1_addr);
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let read_msg () =
            match Proto.Wire.read_frame fd with
            | None ->
              Format.eprintf "query: server closed the connection@.";
              exit 4
            | Some frame -> Proto.Wire.decode_server_msg wkeys frame
          in
          let busy () =
            Format.printf "server busy — retry later@.";
            exit 3
          in
          match read_msg () with
          | Proto.Wire.Server_hello { n; m = m_total; s = _; key_bits } ->
            if key_bits <> bits then begin
              Format.eprintf "query: server key is %d bits, ours %d@." key_bits bits;
              exit 4
            end;
            let scoring = Scoring.sum_of (List.init (min m m_total) Fun.id) in
            let tk = Sectopk.Scheme.token key ~m_total scoring ~k in
            Proto.Wire.write_frame fd
              (Proto.Wire.encode_client_msg
                 (Proto.Wire.Query_req { token = Sectopk.Codec.encode_token tk }));
            (match read_msg () with
            | Proto.Wire.Query_resp { top; halting_depth; halted } ->
              Format.printf "query: halting depth %d/%d (halted %b)@." halting_depth n halted;
              let res =
                { Sectopk.Query.top; halting_depth; halted; depth_seconds = [||] }
              in
              let ids = List.init n (fun i -> "o" ^ string_of_int i) in
              let reals = Sectopk.Client.real_results ~sk ctx key ~ids res in
              List.iter
                (fun (id, w, b) -> Format.printf "  %-6s score in [%d, %d]@." id w b)
                reals
            | Proto.Wire.Busy -> busy ()
            | Proto.Wire.Server_error e ->
              Format.eprintf "server error: %s@." e;
              exit 4
            | Proto.Wire.Server_hello _ ->
              Format.eprintf "query: unexpected second hello@.";
              exit 4)
          | Proto.Wire.Busy -> (* no session domain free on serve-s1 *) busy ()
          | _ ->
            Format.eprintf "query: expected a server hello@.";
            exit 4))

let s1_arg =
  Arg.(required & opt (some string) None
       & info [ "s1" ] ~docv:"HOST:PORT" ~doc:"Address of the serve-s1 front-end.")

let key_file_arg =
  Arg.(required & opt (some string) None
       & info [ "key" ] ~docv:"FILE" ~doc:"Client secret key blob from build-index --key-out.")

let query_cmd =
  Cmd.v
    (Cmd.info "query"
       ~doc:"Issue a top-k query to a serve-s1 front-end and decrypt the results \
             (the client step).")
    Term.(const query_client $ s1_arg $ key_file_arg $ k_arg $ m_arg $ seed_arg $ bits_arg)

(* ---------------- stats ---------------- *)

let render_stats_human snap =
  if snap = [] then Format.printf "(empty registry)@."
  else begin
    let q hd p = Obs.Registry.hist_quantile hd p in
    List.iter
      (fun (name, m) ->
        match m with
        | Obs.Registry.Counter v -> Format.printf "%-24s %d@." name v
        | Obs.Registry.Gauge v -> Format.printf "%-24s %.6g@." name v
        | Obs.Registry.Histogram hd ->
          if hd.Obs.Registry.hcount = 0 then Format.printf "%-24s (empty)@." name
          else
            Format.printf
              "%-24s count %d  mean %.1f  p50 %d  p95 %d  p99 %d  max %d@." name
              hd.Obs.Registry.hcount
              (Obs.Registry.hist_mean hd)
              (q hd 0.5) (q hd 0.95) (q hd 0.99) hd.Obs.Registry.hmax)
      snap
  end

let stats_client addr prom json =
  or_file_error (fun () ->
      let snap = Proto.Transport.scrape_stats (parse_addr addr) in
      if prom then print_string (Obs.Registry.to_prometheus snap)
      else if json then print_endline (Obs.Registry.to_json snap)
      else render_stats_human snap)

let stats_addr_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"HOST:PORT"
           ~doc:"Address of a running serve-s1 or serve-s2 daemon.")

let prom_arg =
  Arg.(value & flag
       & info [ "prom" ] ~doc:"Emit Prometheus text exposition instead of the summary.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit the JSON snapshot instead of the summary.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scrape live telemetry from a running daemon: counters, load gauges, \
             and latency/size histograms (summarised as count/mean/p50/p95/p99/max; \
             histogram values are microseconds for *_us series).")
    Term.(const stats_client $ stats_addr_arg $ prom_arg $ json_arg)

let index_info store_dir seed bits verify =
  or_file_error (fun () ->
      let pub, _, _, _ = Proto.Ctx.provision ~seed ~key_bits:bits ~rand_bits:96 () in
      if Store.Sharded.is_sharded ~dir:store_dir then (
        let stores = Store.Sharded.open_index ~dir:store_dir pub in
        let shards = Array.length stores in
        Format.printf "sharded index: %d shards (map + shard fingerprints verified)@." shards;
        Array.iteri
          (fun i st ->
            if verify then Store.verify st;
            Format.printf
              "  %-8s generation %d: %d rows x %d lists, s=%d, %d records/block, %d KB on \
               disk%s@."
              (Store.Sharded.shard_dir_name i)
              (Store.generation st) (Store.n_rows st) (Store.n_attrs st) (Store.cells st)
              (Store.block_records st)
              (Store.disk_bytes st / 1024)
              (if verify then ", all blocks verified" else ""))
          stores;
        let total_rows = Array.fold_left (fun acc st -> acc + Store.n_rows st) 0 stores in
        let total_kb =
          Array.fold_left (fun acc st -> acc + Store.disk_bytes st) 0 stores / 1024
        in
        Format.printf "total: %d rows, %d KB on disk@." total_rows total_kb;
        Array.iter Store.close stores)
      else
        let st = Store.open_index ~dir:store_dir pub in
        if verify then Store.verify st;
        Format.printf
          "generation %d: %d rows x %d lists, s=%d, %d records/block, %d KB on disk%s@."
          (Store.generation st) (Store.n_rows st) (Store.n_attrs st) (Store.cells st)
          (Store.block_records st)
          (Store.disk_bytes st / 1024)
          (if verify then ", all blocks verified" else "");
        Store.close st)

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ] ~doc:"Read every segment block through its checksum.")

let index_info_cmd =
  Cmd.v
    (Cmd.info "index-info"
       ~doc:"Validate an on-disk index and print its shape (exit 4 on a corrupt store).")
    Term.(const index_info $ store_arg $ seed_arg $ bits_arg $ verify_arg)

(* ---------------- nra ---------------- *)

let nra rows attrs k m seed dist =
  let rel = make_rel ~seed ~rows ~attrs ~dist in
  let scoring = Scoring.sum_of (List.init (min m attrs) Fun.id) in
  let sl = Sorted_lists.of_relation rel in
  let results, stats = Nra.run sl scoring ~k in
  Format.printf "halting depth %d/%d (%d distinct seen, exhausted %b)@." stats.Nra.halting_depth
    rows stats.Nra.distinct_seen stats.Nra.exhausted;
  List.iter
    (fun r -> Format.printf "  o%-5d worst %-6d best %-6d@." r.Nra.oid r.Nra.worst r.Nra.best)
    results;
  Format.printf "oracle-valid: %b@."
    (Nra.valid_answer rel scoring ~k (List.map (fun r -> r.Nra.oid) results))

let nra_cmd =
  Cmd.v (Cmd.info "nra" ~doc:"Run the plaintext NRA baseline.")
    Term.(const nra $ rows_arg $ attrs_arg $ k_arg $ m_arg $ seed_arg $ dist_arg)

(* ---------------- join ---------------- *)

let join rows k seed bits =
  let r1 = Synthetic.generate ~seed:(seed ^ "1") ~name:"R1" ~rows ~attrs:2
      (Synthetic.Uniform { lo = 0; hi = rows / 2 }) in
  let r2 = Synthetic.generate ~seed:(seed ^ "2") ~name:"R2" ~rows ~attrs:2
      (Synthetic.Uniform { lo = 0; hi = rows / 2 }) in
  let rng = Rng.create ~seed in
  let pub, sk = Paillier.keygen ~rand_bits:96 rng ~bits in
  let (e1, e2), key = Join.Join_scheme.encrypt_pair ~s:4 rng pub r1 r2 in
  let token = Join.Join_scheme.token key ~m1:2 ~m2:2 ~join:(0, 0) ~score:(1, 1) ~k in
  let ctx = Proto.Ctx.of_keys ~blind_bits:48 rng pub sk in
  let t0 = Unix.gettimeofday () in
  let top = Join.Sec_join.top_k ctx e1 e2 token in
  Format.printf "secure join of %dx%d pairs in %.2fs; top-%d scores:@." rows rows
    (Unix.gettimeofday () -. t0) k;
  List.iter
    (fun (t : Join.Sec_join.joined) ->
      Format.printf "  %s@." (Bignum.Nat.to_string (Paillier.decrypt sk t.Join.Sec_join.score)))
    top

let join_cmd =
  Cmd.v (Cmd.info "join" ~doc:"Run a secure top-k equi-join on generated relations.")
    Term.(const join $ rows_arg $ k_arg $ seed_arg $ bits_arg)

(* ---------------- keysize ---------------- *)

let keysize rows attrs bits =
  let rng = Rng.create ~seed:"keysize" in
  let pub, _ = Paillier.keygen ~rand_bits:96 rng ~bits in
  let ct = Paillier.ciphertext_bytes pub in
  let per_entry = (4 * ct) + ct in
  Format.printf "key %d bits: ciphertext %d B; EHL+(s=4) entry %d B@." bits ct per_entry;
  Format.printf "encrypted relation %d x %d: %.1f MB@." rows attrs
    (float_of_int (rows * attrs * per_entry) /. 1048576.)

let keysize_cmd =
  Cmd.v (Cmd.info "keysize" ~doc:"Estimate encrypted database sizes.")
    Term.(const keysize $ rows_arg $ attrs_arg $ bits_arg)

let () =
  let info = Cmd.info "topk_cli" ~doc:"SecTopK: top-k queries over encrypted databases." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ demo_cmd; serve_s2_cmd; build_index_cmd; serve_s1_cmd; query_cmd; stats_cmd;
            index_info_cmd; nra_cmd; join_cmd; keysize_cmd ]))
