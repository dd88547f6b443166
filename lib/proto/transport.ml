type kind =
  | Inproc of S2_server.t
  | Loopback of S2_server.t
  | Mux of { sched : Sched.t; session : int }
      (* parked at a shared round scheduler: many queries, one S2 trip *)

type t = {
  keys : Wire.keys;
  chan : Channel.t;
  kind : kind;
  rtt_us : int; (* simulated per-round latency (Loopback only; bench --rtt) *)
}

let inproc keys server =
  { keys; chan = Channel.create (); kind = Inproc server; rtt_us = 0 }

let loopback ?(rtt_us = 0) keys server =
  { keys; chan = Channel.create (); kind = Loopback server; rtt_us }

let mux keys sched ~session =
  { keys; chan = Channel.create (); kind = Mux { sched; session }; rtt_us = 0 }

let channel t = t.chan
let keys t = t.keys

(* Mux keeps the scheduler's one-outstanding-op-per-query invariant — the
   all-parked ship condition counts queries — so a query never has two
   rpcs in flight there: Ctx.rpc_pipeline ships its chunks one at a time
   (results are width-independent by construction, only wall time
   changes). *)
let concurrent t = match t.kind with Mux _ -> false | Inproc _ | Loopback _ -> true

let mode_name t =
  match t.kind with Inproc _ -> "inproc" | Loopback _ -> "loopback" | Mux _ -> "mux"

(* ---------------- request/response round trip ----------------

   Every rpc is one request frame S1 -> S2 and one response frame back:
   both are charged to the channel at their real encoded length (Loopback
   measures the frames it materialises; Inproc and Mux charge Wire's
   closed forms, which the property tests pin to the encoded lengths). *)

let rpc t ~label req =
  match t.kind with
  | Inproc server ->
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label
      ~bytes:(Wire.request_bytes t.keys ~label req);
    let resp = S2_server.handle server ~label req in
    Channel.send t.chan ~dir:Channel.S2_to_s1 ~label
      ~bytes:(Wire.response_bytes t.keys resp);
    Channel.round_trip t.chan;
    resp
  | Loopback server ->
    let frame = Wire.encode_request t.keys ~session:0 ~label req in
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label ~bytes:(String.length frame);
    let _session, label', req' = Wire.decode_request t.keys frame in
    let resp_frame = Wire.encode_response t.keys (S2_server.handle server ~label:label' req') in
    Channel.send t.chan ~dir:Channel.S2_to_s1 ~label ~bytes:(String.length resp_frame);
    Channel.round_trip t.chan;
    if t.rtt_us > 0 then Unix.sleepf (float_of_int t.rtt_us *. 1e-6);
    Wire.decode_response t.keys resp_frame
  | Mux { sched; session } -> (
    (* per-query accounting charges the closed forms (what one query's
       own request/response frames would carry), keeping bytes/messages/
       rounds identical to the Inproc baseline; the shared mux frame's
       framing savings show up in the scheduler's trip counters instead *)
    Channel.send t.chan ~dir:Channel.S1_to_s2 ~label
      ~bytes:(Wire.request_bytes t.keys ~label req);
    match Sched.submit sched (Wire.Mux_req { session; label; req }) with
    | Wire.Mux_answer resp ->
      Channel.send t.chan ~dir:Channel.S2_to_s1 ~label
        ~bytes:(Wire.response_bytes t.keys resp);
      Channel.round_trip t.chan;
      resp
    | Wire.Mux_ok -> raise (Proto_error.Proto_error "Transport: unexpected mux reply"))

(* ---------------- S2-side introspection ---------------- *)

let local_server t =
  match t.kind with Inproc server | Loopback server -> Some server | Mux _ -> None

let trace t =
  match local_server t with
  | Some server -> S2_server.trace server
  | None -> invalid_arg "Transport.trace: S2 is remote"

let secret_key t =
  match local_server t with
  | Some server -> S2_server.secret_key server
  | None -> invalid_arg "Transport.secret_key: S2 is remote"

(* One Stats_req on a connected fd, waiting for the Stats_resp and
   skipping any server-kind frames on the way (serve-s1 greets every
   connection with a Server_hello, which only key holders can decode;
   the kind byte is enough to step over it). *)
let stats fd =
  Wire.write_frame fd (Wire.encode_control Wire.Stats_req);
  let rec await () =
    match Wire.read_frame fd with
    | None -> failwith "Transport: connection closed during stats scrape"
    | Some frame -> (
      match Wire.frame_kind frame with
      | Some 'V' -> await ()
      | _ -> (
        match Wire.decode_control_reply frame with
        | Wire.Stats_resp snap -> snap
        | Wire.Ok_ctl -> failwith "Transport: unexpected control reply"))
  in
  await ()

(* Key-less monitoring scrape against a listening daemon (serve-s1 or
   serve-s2): dial and ask once. *)
let scrape_stats addr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      stats fd)

(* ---------------- daemon plumbing ---------------- *)

let hello fd h =
  Wire.write_frame fd (Wire.encode_control (Wire.Hello h));
  match Wire.read_frame fd with
  | None -> failwith "Transport: S2 closed during Hello"
  | Some frame -> (
    match Wire.decode_control_reply frame with
    | Wire.Ok_ctl -> ()
    | Wire.Stats_resp _ -> failwith "Transport: unexpected control reply")

(* Fork a child process serving the S2 side of a socketpair; returns the
   parent's connected fd (Hello already exchanged) and the child pid.
   The child exits when the parent closes its end. OCaml 5 refuses to
   fork once this process has spawned any domain (a Sched's shipper,
   a Core.Pool helper), so call this before the first one. *)
let spawn_daemon h =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close parent_fd;
    (try S2_server.serve_fd child_fd with _ -> ());
    (try Unix.close child_fd with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close child_fd;
    hello parent_fd h;
    (parent_fd, pid)

(* TCP client for a standalone daemon ([topk_cli serve-s2]). *)
let connect_tcp addr h =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (* the protocols are strict request/response ping-pong over small
     frames; Nagle + delayed ACK would serialize every round behind a
     ~40ms timer *)
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  hello fd h;
  fd

(* Accept failures that leave the listening socket usable: the process or
   the system is out of descriptors or kernel memory, and closing
   connections frees them. The pending connection keeps the socket
   readable, so back off instead of spinning. *)
let accept_backoff_s = 0.05

let accept ~errors sock =
  match Unix.accept sock with
  | conn -> Some conn
  | exception Unix.Unix_error ((Unix.EMFILE | ENFILE | ENOBUFS | ENOMEM), _, _) ->
    Obs.Registry.inc errors;
    Unix.sleepf accept_backoff_s;
    None
