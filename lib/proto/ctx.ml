open Crypto

type s1 = {
  pub : Paillier.public;
  djpub : Damgard_jurik.public;
  rng : Rng.t;
  blind_bits : int option;
  own_pub : Paillier.public;
  own_sk : Paillier.secret;
  djnoise : Noise_pool.t;
}

let make_djnoise rng djpub =
  Noise_pool.create rng ~label:"djnoise" (fun r -> Damgard_jurik.noise r djpub)

type t = {
  s1 : s1;
  transport : Transport.t;
  domains : int;
  obs : Obs.Collector.t;
  batching : bool;
}

type mode =
  | Inproc
  | Loopback
  | Mux of Sched.t * int (* shared round scheduler + this query's session id *)

let default_mode () =
  match Sys.getenv_opt "TRANSPORT" with
  | Some "loopback" -> Loopback
  | Some "inproc" | None -> Inproc
  | Some other -> invalid_arg ("Ctx: unknown TRANSPORT " ^ other)

let of_keys ?blind_bits ?(domains = 1) ?mode ?rtt_us rng pub sk =
  let mode = match mode with Some m -> m | None -> default_mode () in
  let djpub, djsk_opt = Damgard_jurik.of_paillier pub (Some sk) in
  let s1_rng = Rng.fork rng ~label:"s1" in
  (* S1's personal key inherits the noise policy of the main key so the
     escrow-pack encryptions also run off a fixed-base comb; keygen's
     draw sequence does not depend on [rand_bits], and
     [S2_server.of_hello] applies the same policy when it replays this
     derivation. *)
  let own_pub, own_sk =
    Paillier.keygen ?rand_bits:pub.Paillier.rand_bits s1_rng
      ~bits:(pub.Paillier.key_bits + 16)
  in
  (* Build every long-lived table (Montgomery contexts, fixed-base
     combs) before the first query; under a collector this shows up as
     one startup span. *)
  Obs.span "comb_warmup" (fun () ->
      Paillier.precompute pub;
      Damgard_jurik.precompute djpub;
      Paillier.precompute own_pub);
  let s2_rng = Rng.fork rng ~label:"s2" in
  let keys = Wire.keys_of ~pub ~djpub ~own_pub in
  let local () =
    S2_server.create ~pub ~djpub ~sk ~djsk:(Option.get djsk_opt) ~own_pub ~rng:s2_rng
  in
  let transport =
    match mode with
    | Inproc -> Transport.inproc keys (local ())
    | Loopback -> Transport.loopback ?rtt_us keys (local ())
    | Mux (sched, session) ->
      (* [s2_rng] was forked above regardless — the S1 stream must not
         depend on who runs S2 — and the scheduler's backend provisions
         the byte-identical responder on the other side of the frame *)
      Transport.mux keys sched ~session
  in
  {
    s1 =
      {
        pub;
        djpub;
        rng = s1_rng;
        blind_bits;
        own_pub;
        own_sk;
        djnoise = make_djnoise s1_rng djpub;
      };
    transport;
    domains;
    obs = Obs.Collector.create ();
    batching = true;
  }

let create ?blind_bits ?domains ?mode ?rtt_us rng ~bits =
  let pub, sk = Paillier.keygen rng ~bits in
  of_keys ?blind_bits ?domains ?mode ?rtt_us rng pub sk

(* Canonical seeded provisioning, shared verbatim by [S2_server.of_hello]:
   any reordering here desynchronises a daemon's randomness stream from
   the client's. *)
let provision ~seed ~key_bits ?rand_bits () =
  let root = Rng.create ~seed in
  let pub, sk = Paillier.keygen ?rand_bits root ~bits:key_bits in
  let ctx_rng = Rng.fork root ~label:"ctx" in
  let data_rng = Rng.fork root ~label:"data" in
  (pub, sk, ctx_rng, data_rng)

let with_domains t domains = { t with domains }
let with_batching t batching = { t with batching }

let rpc t ~label req = Transport.rpc t.transport ~label req

(* One round trip carrying [n] independent requests. Empty lists produce
   no traffic; singletons delegate to [rpc] so singleton-sized fan-outs
   leave the exact frames (and channel labels) they always did. With
   batching forced off every element travels alone — same decryptions,
   trace events and rng draws on both sides, only the framing differs. *)
let rpc_batch t ~label reqs =
  match reqs with
  | [] -> []
  | [ req ] -> [ rpc t ~label req ]
  | reqs when not t.batching -> List.map (rpc t ~label) reqs
  | reqs -> (
    match rpc t ~label (Wire.Batch reqs) with
    | Wire.Batch_resp resps when List.length resps = List.length reqs -> resps
    | Wire.Batch_resp resps ->
      (* typed desync: a hostile or broken S2 answers [Server_error], it
         does not kill the session domain *)
      Proto_error.fail "Ctx.rpc_batch: %d responses to %d requests under %s"
        (List.length resps) (List.length reqs) label
    | _ -> Proto_error.fail "Ctx.rpc_batch: expected batch response under %s" label)

(* Double-buffered batching: while chunk [i] is in flight on a borrowed
   crew worker, the caller's domain prepares chunk [i+1]. [prepare] runs
   strictly in index order on the calling domain, under its collector, so
   the S1 randomness stream is identical to sequential execution; chunks
   are sent one at a time, so the S2 stream is too. *)
let rpc_pipeline t ~label ?(chunk = 16) ~prepare n =
  if chunk <= 0 then invalid_arg "Ctx.rpc_pipeline: chunk <= 0";
  let overlap = t.domains > 1 && Transport.concurrent t.transport in
  let idx = ref 0 in
  let next_chunk () =
    if !idx >= n then None
    else begin
      let m = min chunk (n - !idx) in
      let base = !idx in
      (* explicit loop: [prepare] draws randomness, so index order is part
         of the determinism contract *)
      let reqs = ref [] in
      for j = 0 to m - 1 do
        reqs := prepare (base + j) :: !reqs
      done;
      idx := base + m;
      Some (List.rev !reqs)
    end
  in
  let rec loop out = function
    | None -> List.concat (List.rev out)
    | Some reqs ->
      if overlap then begin
        let resps, nxt =
          Core.Pool.overlap ~domains:t.domains (fun () -> rpc_batch t ~label reqs) next_chunk
        in
        loop (resps :: out) nxt
      end
      else begin
        let resps = rpc_batch t ~label reqs in
        loop (resps :: out) (next_chunk ())
      end
  in
  loop [] (next_chunk ())

let channel t = Transport.channel t.transport
let sk t = Transport.secret_key t.transport
let trace t = Transport.trace t.transport
let trace_events t = Trace.events (trace t)
let transport_name t = Transport.mode_name t.transport

(* S1 state for one forked task: its own generator and DJ noise pool,
   derived from the parent's generator by index label. *)
let fork_s1 s1 i =
  let rng = Rng.fork s1.rng ~label:("par:" ^ string_of_int i) in
  { s1 with rng; djnoise = make_djnoise rng s1.djpub }

let map t ~jobs f = Core.Pool.run ~domains:t.domains ~jobs f

(* Tasks are pure S1 work: they get forked S1 state, never a transport,
   so they need no S2 session and run on [t.domains] under every
   transport. Forking happens here, in index order, before any task
   starts; [map] merges the tasks' collectors. *)
let parallel t ~jobs f =
  let s1s = Array.make jobs t.s1 in
  for i = 0 to jobs - 1 do
    s1s.(i) <- fork_s1 t.s1 i
  done;
  map t ~jobs (fun i -> f s1s.(i) i)

let paillier_ct_bytes t = Paillier.ciphertext_bytes t.s1.pub
let dj_ct_bytes t = Damgard_jurik.ciphertext_bytes t.s1.djpub
let sentinel_z (s1 : s1) = Bignum.Nat.pred s1.pub.Paillier.n
