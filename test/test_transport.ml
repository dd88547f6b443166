(* Cross-transport identity: the same seeded query must return
   byte-identical results, the same channel totals (Inproc charges the
   frames it encodes; Mux charges the closed forms, which the Wire tests
   pin to the same numbers) and the same Obs op-counter totals whether
   S2 runs in-process behind the Wire codec (Inproc) or in a forked
   daemon reached through the round scheduler over a socketpair
   ([Sched.socket_backend] — the path serve-s1 takes to serve-s2). The
   daemon counts its S2 ops on its side; they come back through a
   Stats_req on the same connection after the scheduler stops. An
   in-process S2 sees only what the wire carries: a request the decoder
   refuses never reaches it. *)

open Bignum
open Crypto
open Dataset
open Topk
open Proto

let fig3 =
  Relation.create ~name:"fig3"
    [| [| 10; 3; 2 |]; [| 8; 8; 0 |]; [| 5; 7; 6 |]; [| 3; 2; 8 |]; [| 1; 1; 1 |] |]

let seed = "transport-identity"
let key_bits = 128
let rand_bits = 96

let hello = { Wire.seed; key_bits; rand_bits = Some rand_bits; obs = true }

type outcome = {
  top : (Nat.t * Nat.t * Nat.t array) list;  (** raw (worst, best, seen) ciphertexts *)
  ids : string list;  (** decrypted result identities *)
  halting_depth : int;
  trace : Trace.event list option;  (** S2's trace, when S2 is in this process *)
  bytes : int;
  msgs : int;
  rounds : int;
  ops : (string * int) list;  (** client + S2 op counters, summed by name *)
}

let ops_of (c : Obs.Collector.t) =
  List.map
    (fun (op, v) -> (Obs.Metrics.name op, v))
    (Obs.Metrics.to_alist (Obs.Collector.metrics c))

(* sum [a] and [sign]·[b] by name, dropping zeros *)
let combine ?(sign = 1) a b =
  let tbl = Hashtbl.create 16 in
  let add s (name, v) =
    Hashtbl.replace tbl name ((s * v) + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter (add 1) a;
  List.iter (add sign) b;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort compare
  |> List.filter (fun (_, v) -> v <> 0)

let with_obs f =
  let prev = Obs.is_enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled prev) f

(* The framing keys, from a derivation of their own (as Server.start
   derives once), so no query's generator is touched. *)
let keys () =
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
  Ctx.keys (Ctx.derive ctx_rng pub sk)

(* One daemon for the whole suite, forked before anything spawns a
   domain: OCaml 5 refuses [Unix.fork] once the process has spawned one,
   and a scheduler's shipper is a domain. *)
let daemon_fd, daemon_pid = Transport.spawn_daemon hello

let () =
  at_exit (fun () ->
      Unix.close daemon_fd;
      ignore (Unix.waitpid [] daemon_pid))

(* the daemon's cumulative op counters at the last scrape *)
let daemon_seen = ref []

(* Run one query [f] against the daemon under a fresh scheduler and a
   fresh mux session on the shared connection. Once the scheduler has
   stopped, a Stats_req on the same connection returns the daemon's
   [op_*] counters; the result carries this query's share of them. *)
let with_daemon f =
  let sched = Sched.create ~backend:(Sched.socket_backend (keys ()) daemon_fd) () in
  let r =
    Fun.protect
      ~finally:(fun () -> Sched.stop sched)
      (fun () ->
        let session = Sched.open_query sched in
        let r = f (Ctx.Mux (sched, session)) in
        Sched.close_query sched session;
        r)
  in
  let total = Obs.Registry.op_counters (Transport.stats daemon_fd) in
  let mine = combine ~sign:(-1) total !daemon_seen in
  daemon_seen := total;
  (r, mine)

(* run one seeded Fig. 3 query on a given transport *)
let run_on ~variant (mode : Ctx.mode) : outcome =
  let pub, sk, ctx_rng, data_rng = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ~mode ctx_rng pub sk in
  let er, key = Sectopk.Scheme.encrypt ~s:4 data_rng pub fig3 in
  let tk = Sectopk.Scheme.token key ~m_total:3 (Scoring.sum_of [ 0; 1; 2 ]) ~k:2 in
  let res =
    Sectopk.Query.run ctx er tk { Sectopk.Query.default_options with variant }
  in
  (* identity must be checkable without S2 state: open results with the
     provisioned secret key, as a remote-S2 client would *)
  let all_ids = List.init (Relation.n_rows fig3) (fun i -> Relation.object_id fig3 i) in
  let ids =
    List.map (fun (id, _, _) -> id) (Sectopk.Client.real_results ~sk ctx key ~ids:all_ids res)
  in
  let chan = Ctx.channel ctx in
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
    trace = (match mode with Ctx.Inproc -> Some (Ctx.trace_events ctx) | Ctx.Mux _ -> None);
    bytes = Channel.bytes_total chan;
    msgs = Channel.messages_total chan;
    rounds = Channel.rounds_total chan;
    ops = combine (ops_of ctx.Ctx.obs) [];
  }

let run_all ~variant () =
  with_obs (fun () ->
      let inproc = run_on ~variant Ctx.Inproc in
      let daemon, daemon_ops = with_daemon (run_on ~variant) in
      (inproc, daemon, daemon_ops))

let nat_triple_eq (w1, b1, s1) (w2, b2, s2) =
  Nat.equal w1 w2 && Nat.equal b1 b2
  && Array.length s1 = Array.length s2
  && Array.for_all2 Nat.equal s1 s2

let check_identical name (a : outcome) (b : outcome) =
  Alcotest.(check (list string)) (name ^ ": result ids") a.ids b.ids;
  Alcotest.(check int) (name ^ ": halting depth") a.halting_depth b.halting_depth;
  Alcotest.(check bool) (name ^ ": ciphertexts byte-identical") true
    (List.length a.top = List.length b.top && List.for_all2 nat_triple_eq a.top b.top);
  Alcotest.(check int) (name ^ ": bytes") a.bytes b.bytes;
  Alcotest.(check int) (name ^ ": messages") a.msgs b.msgs;
  Alcotest.(check int) (name ^ ": rounds") a.rounds b.rounds;
  Alcotest.(check (list (pair string int))) (name ^ ": obs op totals") a.ops b.ops

let test_variant variant () =
  let inproc, daemon, daemon_ops = run_all ~variant () in
  let trace o = Option.value ~default:[] o.trace in
  Alcotest.(check bool) "trace non-trivial" true (List.length (trace inproc) > 3);
  Alcotest.(check bool) "bytes non-trivial" true (inproc.bytes > 1000);
  (* the daemon derived its keys once, at Hello, outside the connection's
     collector, and a Mux_open only copies state: its counters are
     exactly the S2 share of the in-process totals *)
  Alcotest.(check bool) "daemon counted paillier_decrypt" true
    (List.mem_assoc "paillier_decrypt" daemon_ops);
  (* no SecTopK phase runs a Damgård–Jurik operation on either side *)
  Alcotest.(check (list (pair string int))) "the daemon counted no DJ operation" []
    (List.filter (fun (name, _) -> String.starts_with ~prefix:"dj_" name) daemon_ops);
  (* Inproc's totals are the lengths of the frames it encoded, Mux's the
     closed forms: over a whole query they must agree *)
  check_identical "inproc vs daemon" inproc { daemon with ops = combine daemon.ops daemon_ops }

(* the daemon's S2 op counters must actually come from the other process,
   and arrive on the query's own connection *)
let test_remote_stats () =
  with_obs (fun () ->
      let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
      let client, daemon_ops =
        with_daemon (fun mode ->
            let ctx = Ctx.of_keys ~blind_bits:48 ~mode ctx_rng pub sk in
            Obs.with_collector ctx.Ctx.obs (fun () ->
                let a = Paillier.encrypt ctx.Ctx.s1.Ctx.rng pub (Nat.of_int 3) in
                let b = Paillier.encrypt ctx.Ctx.s1.Ctx.rng pub (Nat.of_int 5) in
                Alcotest.(check bool) "3 <= 5" true (Enc_compare.leq ctx a b));
            ops_of ctx.Ctx.obs)
      in
      Alcotest.(check (option int)) "one Sign_of decrypted by the daemon" (Some 1)
        (List.assoc_opt "paillier_decrypt" daemon_ops);
      Alcotest.(check (option int)) "none decrypted by the client" (Some 0)
        (List.assoc_opt "paillier_decrypt" client))

(* A daemon's first frame is read before the peer has provisioned
   anything: an oversized length prefix must end the connection from the
   header alone. The socket is non-blocking, so a daemon that went on to
   read the payload fails with EAGAIN instead of hanging the suite. *)
let test_first_frame_cap () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close client;
      Unix.close server)
    (fun () ->
      Unix.set_nonblock server;
      ignore (Unix.write_substring client "\x3f\xff\xff\xff" 0 4);
      Alcotest.(check bool) "rejected from the header" true
        (try
           S2_server.serve_fd server;
           false
         with Invalid_argument _ -> true))

(* The in-process transport hands S2 the decoded frame, not the request
   value: an EncSort item with no EHL cells, which no frame can carry,
   is refused before S2 sorts it or records anything. A well-formed round
   costs the frames' encoded lengths, which are the closed forms Mux
   charges. *)
let test_wire_only () =
  let pub, sk, ctx_rng, _ = Ctx.provision ~seed ~key_bits ~rand_bits () in
  let ctx = Ctx.of_keys ~blind_bits:48 ctx_rng pub sk in
  let enc i = Paillier.encrypt ctx.Ctx.s1.Ctx.rng pub (Nat.of_int i) in
  let item cells =
    { Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; worst = enc 1; best = enc 2; seen = [| enc 0 |] }
  in
  let sort it = Wire.Sort_items { keys = [ enc 5 ]; items = [ it ] } in
  Alcotest.(check bool) "no EHL cells: refused" true
    (match Ctx.rpc ctx ~label:"EncSort" (sort (item [||])) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "S2 recorded nothing" 0 (List.length (Ctx.trace_events ctx));
  let keys = Transport.keys ctx.Ctx.transport and req = sort (item [| enc 7 |]) in
  let before = Channel.bytes_total (Ctx.channel ctx) in
  let resp = Ctx.rpc ctx ~label:"EncSort" req in
  Alcotest.(check int) "S2 sorted one item" 1 (List.length (Ctx.trace_events ctx));
  Alcotest.(check int) "bytes = closed forms"
    (Wire.request_bytes keys ~label:"EncSort" req + Wire.response_bytes keys resp)
    (Channel.bytes_total (Ctx.channel ctx) - before)

let suite =
  [ ( "identity",
      [ Alcotest.test_case "Qry_F inproc/socket" `Slow (test_variant Sectopk.Query.Full);
        Alcotest.test_case "Qry_E inproc/socket" `Slow (test_variant Sectopk.Query.Elim);
        Alcotest.test_case "in-process S2 sees only the wire" `Quick test_wire_only ] );
    ( "daemon",
      [ Alcotest.test_case "remote stats" `Quick test_remote_stats;
        Alcotest.test_case "oversized first frame" `Quick test_first_frame_cap ] ) ]

let () = Alcotest.run "transport" suite
