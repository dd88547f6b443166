open Crypto

(* Everything a query context starts from that does not change between
   queries. The generators are never drawn from: each context starts
   from copies, so it sees exactly the streams a fresh derivation would
   hand it. Defined ahead of [s1], whose labels take precedence. *)
type derived = {
  pub : Paillier.public;
  sk : Paillier.secret;
  own_pub : Paillier.public;
  own_sk : Paillier.secret;
  s1_rng : Rng.t;
  s2_rng : Rng.t;
  keys : Wire.keys;
}

type s1 = {
  pub : Paillier.public;
  rng : Rng.t;
  blind_bits : int option;
  own_pub : Paillier.public;
  own_sk : Paillier.secret;
}

type t = {
  s1 : s1;
  transport : Transport.t;
  domains : int;
  obs : Obs.Collector.t;
  batching : bool;
}

type mode =
  | Inproc
  | Mux of Sched.t * int (* shared round scheduler + this query's session id *)

let derive rng pub sk =
  let s1_rng = Rng.fork rng ~label:"s1" in
  (* S1's personal key inherits the noise policy of the main key so the
     escrow-pack encryptions also run off a fixed-base comb; keygen's
     draw sequence does not depend on [rand_bits], and
     [S2_server.provision] applies the same policy when it replays this
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
      Paillier.precompute own_pub);
  let s2_rng = Rng.fork rng ~label:"s2" in
  let keys = Wire.keys_of ~pub ~own_pub in
  ({ pub; sk; own_pub; own_sk; s1_rng; s2_rng; keys } : derived)

let keys (d : derived) = d.keys

let of_derived ?blind_bits ?(domains = 1) ?(mode = Inproc) ?rtt_us (d : derived) =
  let transport =
    match mode with
    | Inproc ->
      Transport.inproc ?rtt_us d.keys
        (S2_server.create ~pub:d.pub ~sk:d.sk ~own_pub:d.own_pub ~rng:(Rng.copy d.s2_rng))
    | Mux (sched, session) ->
      (* the scheduler's backend starts the byte-identical responder on
         the other side of the frame *)
      Transport.mux d.keys sched ~session
  in
  {
    s1 =
      {
        pub = d.pub;
        rng = Rng.copy d.s1_rng;
        blind_bits;
        own_pub = d.own_pub;
        own_sk = d.own_sk;
      };
    transport;
    domains;
    obs = Obs.Collector.create ();
    batching = true;
  }

let of_keys ?blind_bits ?domains ?mode ?rtt_us rng pub sk =
  of_derived ?blind_bits ?domains ?mode ?rtt_us (derive rng pub sk)

(* Canonical seeded provisioning, shared verbatim by [S2_server.provision]:
   any reordering here desynchronises a daemon's randomness stream from
   the client's. *)
let provision ~seed ~key_bits ?rand_bits () =
  let root = Rng.create ~seed in
  let pub, sk = Paillier.keygen ?rand_bits root ~bits:key_bits in
  let ctx_rng = Rng.fork root ~label:"ctx" in
  let data_rng = Rng.fork root ~label:"data" in
  (pub, sk, ctx_rng, data_rng)

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

let channel t = Transport.channel t.transport
let sk t = Transport.secret_key t.transport
let trace t = Transport.trace t.transport
let trace_events t = Trace.events (trace t)
let transport_name t = Transport.mode_name t.transport

let map t ~jobs f = Core.Pool.run ~domains:t.domains ~jobs f

let sentinel_z (s1 : s1) = Bignum.Nat.pred s1.pub.Paillier.n
