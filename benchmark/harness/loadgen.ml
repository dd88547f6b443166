(* The client side: one connection per client to serve-s1, tokens built
   with Scheme.token, answers decrypted with Client.real_results and
   checked against the plaintext NRA oracle. Clients run closed loops. *)

open Proto
open Dataset

(* [Failed]: Busy, a server error, a lost connection or the deadline *)
type outcome = Answer | Failed of string | Invalid of string

type sample = {
  outcome : outcome;
  sent : float;  (** when Query_req was sent (Unix time) *)
  latency : float;  (** send of Query_req -> decrypted answer, seconds *)
  token_s : float;
  decrypt_s : float;
  digest : string;  (** of the Query_resp frame *)
  depth : int;
}

(* per-query client deadline *)
let deadline_s = 120.

type client = {
  port : int;
  mutable fd : Unix.file_descr option;
  ctx : Ctx.t;
  sk : Crypto.Paillier.secret;
  wkeys : Wire.keys;
  key : Sectopk.Scheme.secret_key;
  rel : Relation.t;
  ids : string list;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let provision () =
  Ctx.provision ~seed:Workload.key_seed ~key_bits:Workload.key_bits
    ~rand_bits:Workload.rand_bits ()

(* [ctx] only lends its public key to the result resolver *)
let create ~port ~key ~rel =
  let pub, sk, ctx_rng, _ = provision () in
  let ctx = Ctx.of_keys ~blind_bits:Workload.blind_bits ~mode:Ctx.Inproc ctx_rng pub sk in
  {
    port;
    fd = None;
    ctx;
    sk;
    wkeys = Transport.keys ctx.Ctx.transport;
    key;
    rel;
    ids = List.init (Relation.n_rows rel) (Relation.object_id rel);
  }

let drop c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let connect c =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline_s;
     match Option.map (Wire.decode_server_msg c.wkeys) (Wire.read_frame fd) with
     | Some (Wire.Server_hello { n; m; _ })
       when n = Relation.n_rows c.rel && m = Relation.n_attrs c.rel -> ()
     | _ -> failwith "serve-s1 announced an unexpected index shape"
   with e ->
     Unix.close fd;
     raise e);
  c.fd <- Some fd;
  fd

let oid id = int_of_string (String.sub id 1 (String.length id - 1))

(* [None] when the answer is a valid top-k: exactly k real objects, an
   NRA-correct set, and every exact score inside its returned bounds. *)
let check rel scoring ~k reals =
  let n = Relation.n_rows rel in
  if List.length reals <> min k n then
    Some (Printf.sprintf "%d real results for k = %d" (List.length reals) k)
  else if not (Topk.Nra.valid_answer rel scoring ~k (List.map (fun (id, _, _) -> oid id) reals))
  then Some "not an NRA-correct top-k"
  else
    List.find_map
      (fun (id, w, b) ->
        let s = Topk.Scoring.score scoring rel (oid id) in
        if s < w || s > b then Some (Printf.sprintf "%s scores %d outside [%d, %d]" id s w b)
        else None)
      reals

let token c (q : Workload.query) =
  Sectopk.Scheme.token c.key ~m_total:(Relation.n_attrs c.rel) (Workload.scoring q) ~k:q.k

let query c (q : Workload.query) =
  let tok, token_s = time (fun () -> Sectopk.Codec.encode_token (token c q)) in
  let fail outcome =
    { outcome; sent = 0.; latency = 0.; token_s; decrypt_s = 0.; digest = ""; depth = 0 }
  in
  match
    let fd = match c.fd with Some fd -> fd | None -> connect c in
    let t0 = Unix.gettimeofday () in
    Wire.write_frame fd (Wire.encode_client_msg (Wire.Query_req { token = tok }));
    (t0, Wire.read_frame fd)
  with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    drop c;
    fail (Failed "no answer within the deadline")
  | exception e ->
    drop c;
    fail (Failed (Printexc.to_string e))
  | _, None ->
    drop c;
    fail (Failed "serve-s1 closed the connection")
  | t0, Some frame -> (
    match Wire.decode_server_msg c.wkeys frame with
    | Wire.Query_resp { top; halting_depth; halted } ->
      let res = { Sectopk.Query.top; halting_depth; halted; depth_seconds = [||] } in
      let reals, decrypt_s =
        time (fun () -> Sectopk.Client.real_results ~sk:c.sk c.ctx c.key ~ids:c.ids res)
      in
      let latency = Unix.gettimeofday () -. t0 in
      let outcome =
        match check c.rel (Workload.scoring q) ~k:q.k reals with
        | None -> Answer
        | Some why -> Invalid why
      in
      { outcome; sent = t0; latency; token_s; decrypt_s; digest = Digest.string frame;
        depth = halting_depth }
    | Wire.Busy -> fail (Failed "busy")
    | Wire.Server_error e -> fail (Failed e)
    | Wire.Server_hello _ -> fail (Failed "unexpected second hello")
    | exception Invalid_argument e -> fail (Invalid ("undecodable response: " ^ e)))

(* Closed loop over whole passes: client [i] runs [passes.(i)] in order,
   calling [f i qi q] for each query; after every pass the clients meet,
   and all start another pass while the phase is younger than [seconds]
   (one pass when [seconds <= 0]). Client 0 runs on the calling domain, the others
   on one domain each. Returns per client the results tagged with their
   pass and index, and the phase's wall time. *)
let run_passes passes ~seconds f =
  let n = Array.length passes in
  let t0 = Unix.gettimeofday () in
  let lock = Mutex.create () and met = Condition.create () in
  let arrived = ref 0 and round = ref 0 and again = ref false and aborted = ref false in
  let meet () =
    Mutex.lock lock;
    let r = !round in
    incr arrived;
    if !arrived = n then begin
      arrived := 0;
      incr round;
      again := Unix.gettimeofday () -. t0 < seconds;
      Condition.broadcast met
    end
    else
      while !round = r && not !aborted do
        Condition.wait met lock
      done;
    let a = !again && not !aborted in
    Mutex.unlock lock;
    a
  in
  (* a client that raises releases the others at their next meeting *)
  let client i =
    let out = ref [] in
    let rec pass p =
      List.iteri (fun qi q -> out := (p, qi, f i qi q) :: !out) passes.(i);
      if meet () then pass (p + 1)
    in
    match pass 0 with
    | () -> Ok (List.rev !out)
    | exception e ->
      Mutex.lock lock;
      aborted := true;
      Condition.broadcast met;
      Mutex.unlock lock;
      Error e
  in
  let others = Array.init (n - 1) (fun i -> Domain.spawn (fun () -> client (i + 1))) in
  let first = client 0 in
  let results = Array.append [| first |] (Array.map Domain.join others) in
  let wall = Unix.gettimeofday () -. t0 in
  (Array.map (function Ok r -> r | Error e -> raise e) results, wall)
