open Crypto
open Codec

type dedup_mode = Replace | Eliminate

type tuple = {
  score : Paillier.ciphertext;
  attrs : Paillier.ciphertext array;
  r_escrow : Paillier.ciphertext list; (* under own_pub: multiplicative escrows *)
  a_escrow : Paillier.ciphertext array; (* under own_pub: additive escrows *)
}

type request =
  | Sign_of of Paillier.ciphertext
  | Mult of Paillier.ciphertext * Paillier.ciphertext
  | Lsb of Paillier.ciphertext
  | Dedup of { diffs : Paillier.ciphertext list; items : (Enc_item.masked * Enc_item.pack) list }
  | Worst_pick of { diffs : Paillier.ciphertext list; scores : Paillier.ciphertext list }
  | Update_pick of {
      mode : dedup_mode;
      diffs : Paillier.ciphertext list;
      merged : Paillier.ciphertext list list;
      cells : Paillier.ciphertext list list;
    }
  | Dedup_pick of { diffs : Paillier.ciphertext list; items : Paillier.ciphertext list list }
  | Sort_items of { keys : Paillier.ciphertext list; items : Enc_item.scored list }
  | Sort_gate of {
      descending : bool;
      kx : Paillier.ciphertext;
      ky : Paillier.ciphertext;
      x : Enc_item.scored;
      y : Enc_item.scored;
    }
  | Filter of tuple list
  | Rank_tuples of (Paillier.ciphertext * Paillier.ciphertext * Paillier.ciphertext array) list
  | Rank_keys of Paillier.ciphertext list
  | Zero_slot of Paillier.ciphertext list
  | Refresh of { bottoms : Paillier.ciphertext list; bits : Paillier.ciphertext list }
  | Join_pick of { diffs : Paillier.ciphertext list; fields : Paillier.ciphertext list list }
  | Batch of request list

type response =
  | Sign of int
  | Ct of Paillier.ciphertext
  | Items of (Enc_item.masked * Enc_item.pack) list
  | Sorted of Enc_item.scored list
  | Pair of Enc_item.scored * Enc_item.scored
  | Tuples of tuple list
  | Ranked of (Paillier.ciphertext * Paillier.ciphertext array) list
  | Indices of int list
  | Slot of int option
  | Cts of Paillier.ciphertext list
  | Picked of { cts : Paillier.ciphertext list; flags : bool list }
  | Batch_resp of response list

(* One element of a multiplexed frame: the round scheduler coalesces ops
   from many concurrent queries into a single [encode_mux] frame, each op
   tagged with the session it belongs to, so one socket carries
   interleaved slices of many queries (DESIGN.md section 4h). *)
type mux_op =
  | Mux_open of { session : int }
  | Mux_close of { session : int }
  | Mux_fork of { parent : int; child : int; label : string }
  | Mux_join of { parent : int; child : int }
  | Mux_req of { session : int; label : string; req : request }

type mux_reply = Mux_ok | Mux_answer of response
type hello = { seed : string; key_bits : int; rand_bits : int option; obs : bool }
type control = Hello of hello | Stats_req
type control_reply = Ok_ctl | Stats_resp of Obs.Registry.snapshot
type client_msg = Query_req of { token : string }

type server_msg =
  | Server_hello of { n : int; m : int; s : int; key_bits : int }
  | Query_resp of { top : Enc_item.scored list; halting_depth : int; halted : bool }
  | Busy
  | Server_error of string

(* ---------------- pairwise index order for SecDedup ---------------- *)

let pair_indices l =
  let acc = ref [] in
  for i = l - 1 downto 0 do
    for j = l - 1 downto i + 1 do
      acc := (i, j) :: !acc
    done
  done;
  Array.of_list !acc

(* ---------------- frames ----------------

   "STKW" | version | kind | tag | session (4 bytes), then the payload of
   the tagged case; requests put a length-prefixed label naming the
   protocol (for S2's trace and the bandwidth report) before it. Only
   requests use the session field: other frames write 0 and ignore it. *)

let version = 1

let frame kind ~what mid cases =
  let expect v msg = check (( = ) v) msg byte in
  magic "STKW"
    (conv
       (fun (_, _, v) -> v)
       (fun v -> (version, Char.code kind, v))
       (triple (expect version "unsupported version")
          (expect (Char.code kind) "unexpected frame kind")
          (tagged ~what mid cases)))

let no_session = conv ignore (fun () -> 0) int
let one c = [ Case (1, c, Fun.id, Option.some) ]

(* header, tag and session *)
let frame_header_bytes = 11
let request_header_bytes ~label = frame_header_bytes + string.size label
let response_header_bytes = frame_header_bytes

(* ---------------- frames under the session keys ----------------

   Ciphertexts are fixed-width under the shared key or S1's escrow key,
   so [keys_of] builds every keyed codec once. *)

type keys = {
  request : ((int * string) * request) Codec.t;
  response : (unit * response) Codec.t;
  mux : (unit * mux_op list) Codec.t;
  mux_replies : (unit * mux_reply list) Codec.t;
  server : (unit * server_msg) Codec.t;
}

let keys_of ~pub ~own_pub =
  let paillier pub = nat (Paillier.ciphertext_bytes pub) (Paillier.of_nat pub) Paillier.to_nat in
  let ct = paillier pub and own = paillier own_pub in
  let cts = list ct and capped c = array ~max:4096 c in
  (* a non-empty capped array: its smallest encoding holds one element *)
  let nonempty what c =
    let ok a = Array.length a > 0 in
    { (check ok ("bad " ^ what ^ " count") (capped c)) with min = 4 + c.min }
  in
  let scored =
    conv
      (fun (cells, worst, best, seen) ->
        { Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; worst; best; seen })
      (fun (s : Enc_item.scored) -> (Ehl.Ehl_plus.cells s.ehl, s.worst, s.best, s.seen))
      (quad (nonempty "cell" ct) ct ct (capped ct))
  in
  let masked =
    conv
      (fun (cells, worst, seen) -> { Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; worst; seen })
      (fun (s : Enc_item.masked) -> (Ehl.Ehl_plus.cells s.ehl, s.worst, s.seen))
      (triple (nonempty "cell" ct) ct (capped ct))
  in
  let pack =
    conv
      (fun (alphas, beta, sigmas) -> { Enc_item.alphas; beta; sigmas })
      (fun (p : Enc_item.pack) -> (p.alphas, p.beta, p.sigmas))
      (triple (nonempty "alpha" own) own (capped own))
  in
  let tuple =
    conv
      (fun (score, attrs, r_escrow, a_escrow) -> { score; attrs; r_escrow; a_escrow })
      (fun t -> (t.score, t.attrs, t.r_escrow, t.a_escrow))
      (quad ct (capped ct) (list ~max:4096 own) (capped own))
  in
  let items = list (pair masked pack) in
  let mode = conv (fun e -> if e then Eliminate else Replace) (( = ) Eliminate) bool in
  (* request tags 2, 3 and 4 (SecJoin's Damgård–Jurik equality,
     conjunction and RecoverEnc rounds), 5 (SecRefresh's Damgård–Jurik
     lift), 6, 7 and 8 (the DGK comparison's low bits and zero tests),
     11 (SecDedup with a mode byte), 12 (SecUpdate's Damgård–Jurik
     flags) and 25 (SecJoin's pick with a group of diffs per
     combination) and response tags 2 (the doubly encrypted bits), 4 and
     5 (the DGK bits and zero-test bit) and 6 (the flags' reply) are
     retired: reusing one would misparse an older peer *)
  let requests =
    [ Case (1, ct, (fun c -> Sign_of c), function Sign_of c -> Some c | _ -> None);
      Case (9, pair ct ct, (fun (a, b) -> Mult (a, b)),
            function Mult (a, b) -> Some (a, b) | _ -> None);
      Case (10, ct, (fun c -> Lsb c), function Lsb c -> Some c | _ -> None);
      Case (13, pair cts (list scored), (fun (keys, items) -> Sort_items { keys; items }),
            function Sort_items { keys; items } -> Some (keys, items) | _ -> None);
      Case (14, quad bool (pair ct ct) scored scored,
            (fun (descending, (kx, ky), x, y) -> Sort_gate { descending; kx; ky; x; y }),
            function Sort_gate g -> Some (g.descending, (g.kx, g.ky), g.x, g.y) | _ -> None);
      Case (15, list tuple, (fun l -> Filter l), function Filter l -> Some l | _ -> None);
      Case (16, list (triple ct ct (capped ct)), (fun l -> Rank_tuples l),
            function Rank_tuples l -> Some l | _ -> None);
      Case (17, cts, (fun l -> Rank_keys l), function Rank_keys l -> Some l | _ -> None);
      Case (18, cts, (fun l -> Zero_slot l), function Zero_slot l -> Some l | _ -> None);
      Case (20, pair cts cts, (fun (bottoms, bits) -> Refresh { bottoms; bits }),
            function Refresh { bottoms; bits } -> Some (bottoms, bits) | _ -> None);
      Case (21, pair cts cts, (fun (diffs, scores) -> Worst_pick { diffs; scores }),
            function Worst_pick { diffs; scores } -> Some (diffs, scores) | _ -> None);
      Case (22, quad mode cts (list cts) (list cts),
            (fun (mode, diffs, merged, cells) -> Update_pick { mode; diffs; merged; cells }),
            function Update_pick u -> Some (u.mode, u.diffs, u.merged, u.cells) | _ -> None);
      Case (23, pair cts (list cts), (fun (diffs, items) -> Dedup_pick { diffs; items }),
            function Dedup_pick { diffs; items } -> Some (diffs, items) | _ -> None);
      Case (24, pair cts items, (fun (diffs, items) -> Dedup { diffs; items }),
            function Dedup { diffs; items } -> Some (diffs, items) | _ -> None);
      Case (26, pair cts (list cts), (fun (diffs, fields) -> Join_pick { diffs; fields }),
            function Join_pick { diffs; fields } -> Some (diffs, fields) | _ -> None) ]
  in
  let batch = variant ~what:"batched request" requests in
  let requests =
    requests @ [ Case (19, list batch, (fun l -> Batch l), function Batch l -> Some l | _ -> None) ]
  in
  let sign =
    conv (fun b -> b - 1)
      (fun s -> if s < -1 || s > 1 then invalid_arg "Wire: bad sign" else s + 1)
      (check (fun b -> b <= 2) "bad sign" byte)
  in
  let responses =
    [ Case (1, sign, (fun s -> Sign s), function Sign s -> Some s | _ -> None);
      Case (3, ct, (fun c -> Ct c), function Ct c -> Some c | _ -> None);
      Case (7, items, (fun l -> Items l), function Items l -> Some l | _ -> None);
      Case (8, list scored, (fun l -> Sorted l), function Sorted l -> Some l | _ -> None);
      Case (9, pair scored scored, (fun (x, y) -> Pair (x, y)),
            function Pair (x, y) -> Some (x, y) | _ -> None);
      Case (10, list tuple, (fun l -> Tuples l), function Tuples l -> Some l | _ -> None);
      Case (11, list (pair ct (capped ct)), (fun l -> Ranked l),
            function Ranked l -> Some l | _ -> None);
      Case (12, list int, (fun l -> Indices l), function Indices l -> Some l | _ -> None);
      Case (13, option int, (fun s -> Slot s), function Slot s -> Some s | _ -> None);
      Case (15, cts, (fun l -> Cts l), function Cts l -> Some l | _ -> None);
      Case (16, pair cts (list bool), (fun (cts, flags) -> Picked { cts; flags }),
            function Picked { cts; flags } -> Some (cts, flags) | _ -> None) ]
  in
  let batch = variant ~what:"batched response" responses in
  let responses =
    responses
    @ [ Case (14, list batch, (fun l -> Batch_resp l),
              function Batch_resp l -> Some l | _ -> None) ]
  in
  let mux_op =
    variant ~what:"mux op"
      [ Case (1, int, (fun session -> Mux_open { session }),
              function Mux_open { session } -> Some session | _ -> None);
        Case (2, int, (fun session -> Mux_close { session }),
              function Mux_close { session } -> Some session | _ -> None);
        Case (3, triple int int string,
              (fun (parent, child, label) -> Mux_fork { parent; child; label }),
              function Mux_fork f -> Some (f.parent, f.child, f.label) | _ -> None);
        Case (4, pair int int, (fun (parent, child) -> Mux_join { parent; child }),
              function Mux_join { parent; child } -> Some (parent, child) | _ -> None);
        Case (5, triple int string (variant ~what:"request" requests),
              (fun (session, label, req) -> Mux_req { session; label; req }),
              function Mux_req { session; label; req } -> Some (session, label, req) | _ -> None) ]
  in
  let mux_reply =
    variant ~what:"mux reply"
      [ Case (1, unit, (fun () -> Mux_ok), function Mux_ok -> Some () | _ -> None);
        Case (2, variant ~what:"response" responses, (fun r -> Mux_answer r),
              function Mux_answer r -> Some r | _ -> None) ]
  in
  let hello_ok (n, m, s, key_bits) =
    n > 0 && m > 0 && s > 0 && s <= 64 && key_bits > 0 && key_bits <= 65536
  in
  let server =
    [ Case (1, check hello_ok "bad hello" (quad int int int int),
            (fun (n, m, s, key_bits) -> Server_hello { n; m; s; key_bits }),
            function Server_hello { n; m; s; key_bits } -> Some (n, m, s, key_bits) | _ -> None);
      Case (2, triple int bool (list ~max:4096 scored),
            (fun (halting_depth, halted, top) -> Query_resp { top; halting_depth; halted }),
            function Query_resp r -> Some (r.halting_depth, r.halted, r.top) | _ -> None);
      Case (3, unit, (fun () -> Busy), function Busy -> Some () | _ -> None);
      Case (4, string, (fun e -> Server_error e), function Server_error e -> Some e | _ -> None) ]
  in
  {
    request = frame 'Q' ~what:"request" (pair int string) requests;
    response = frame 'P' ~what:"response" no_session responses;
    mux = frame 'M' ~what:"mux" no_session (one (list mux_op));
    mux_replies = frame 'N' ~what:"mux replies" no_session (one (list mux_reply));
    server = frame 'V' ~what:"server" no_session server;
  }

let encode_request keys ~session ~label req = encode keys.request ((session, label), req)

let decode_request keys data =
  let (session, label), req = decode keys.request "request" data in
  (session, label, req)

let encode_response keys resp = encode keys.response ((), resp)
let decode_response keys data = snd (decode keys.response "response" data)
let encode_mux keys ops = encode keys.mux ((), ops)
let decode_mux keys data = snd (decode keys.mux "mux frame" data)
let encode_mux_replies keys replies = encode keys.mux_replies ((), replies)
let decode_mux_replies keys data = snd (decode keys.mux_replies "mux replies" data)
let encode_server_msg keys msg = encode keys.server ((), msg)
let decode_server_msg keys data = snd (decode keys.server "server message" data)

(* Exactly [String.length (encode_* ...)]: the Inproc and Mux transports
   charge these without materialising the frame. *)
let request_bytes keys ~label req = keys.request.size ((0, label), req)
let response_bytes keys resp = keys.response.size ((), resp)

(* ---------------- key-less frames ----------------

   Provisioning, telemetry and the client's query frames need no key
   material. Control frames stay outside the protocol's bandwidth
   accounting (the paper's cost model has no analogue of them). Control
   tags 2-6 and control reply tags 2-3 are retired: reusing one would
   misparse an older peer. *)

let hello =
  conv
    (fun (seed, key_bits, rand_bits, obs) -> { seed; key_bits; rand_bits; obs })
    (fun h -> (h.seed, h.key_bits, h.rand_bits, h.obs))
    (quad string int (option int) bool)

let control =
  frame 'C' ~what:"control" no_session
    [ Case (1, hello, (fun h -> Hello h), function Hello h -> Some h | _ -> None);
      Case (7, unit, (fun () -> Stats_req), function Stats_req -> Some () | _ -> None) ]

(* A registry snapshot: count-prefixed (name, metric) entries whose
   integers travel as [i64]. The decoder re-checks what the registry
   guarantees of a histogram. *)
let histogram =
  conv
    (fun ((hcount, hsum, hmin, hmax), hbuckets) ->
      { Obs.Registry.hcount; hsum; hmin; hmax; hbuckets })
    (fun (d : Obs.Registry.histdata) -> ((d.hcount, d.hsum, d.hmin, d.hmax), d.hbuckets))
    (pair (quad i64 i64 i64 i64) (list (pair i64 i64)))
  |> check (fun (d : Obs.Registry.histdata) -> d.hcount = 0 || d.hmin <= d.hmax)
       "histogram min above max"
  |> check
       (fun (d : Obs.Registry.histdata) ->
         d.hcount = List.fold_left (fun acc (_, n) -> acc + n) 0 d.hbuckets)
       "histogram count disagrees with buckets"

let metric : Obs.Registry.metric Codec.t =
  variant ~what:"metric kind"
    [ Case (1, i64, (fun v -> Obs.Registry.Counter v), function Counter v -> Some v | _ -> None);
      Case (2, f64, (fun v -> Obs.Registry.Gauge v), function Gauge v -> Some v | _ -> None);
      Case (3, histogram, (fun d -> Obs.Registry.Histogram d),
            function Histogram d -> Some d | _ -> None) ]

let control_reply =
  frame 'D' ~what:"control reply" no_session
    [ Case (1, unit, (fun () -> Ok_ctl), function Ok_ctl -> Some () | _ -> None);
      Case (4, list (pair string metric), (fun s -> Stats_resp s),
            function Stats_resp s -> Some s | _ -> None) ]

let max_token_bytes = 65536

(* header + length-prefixed token: the largest valid client frame *)
let max_client_frame = frame_header_bytes + 4 + max_token_bytes

let client =
  let token = check (fun t -> String.length t <= max_token_bytes) "oversized token" string in
  frame 'U' ~what:"client" no_session
    [ Case (1, token, (fun token -> Query_req { token }), fun (Query_req { token }) -> Some token) ]

let encode_control ctl = encode control ((), ctl)
let decode_control data = snd (decode control "control" data)
let encode_control_reply reply = encode control_reply ((), reply)
let decode_control_reply data = snd (decode control_reply "control reply" data)
let encode_client_msg msg = encode client ((), msg)
let decode_client_msg data = snd (decode client "client message" data)

(* ---------------- length-prefixed framing over a file descriptor ----

   The 4-byte length prefix is transport plumbing, not protocol payload:
   it is excluded from all bandwidth accounting (DESIGN.md section 4c). *)

(* Both directions restart on EINTR: the serving daemons install signal
   handlers for graceful drain, and a signal must never tear a frame. *)
let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd s off len
  end

(* Coalesced: prefix + payload leave in one buffered write, so a whole
   Batch frame is a single syscall (writev-style flush) instead of two
   writes per frame racing Nagle on the socket path. *)
let write_frame fd data =
  let len = String.length data in
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff));
  Bytes.blit_string data 0 buf 4 len;
  write_all fd (Bytes.unsafe_to_string buf) 0 (4 + len)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then Some (Bytes.to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then None else invalid_arg "Wire: truncated frame"
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* The length is checked against [max] before the payload buffer exists,
   so an unauthenticated peer cannot make us allocate (or wait for) more
   than the caller's cap with a 4-byte header. *)
let read_frame ?(max = 0x3fffffff) fd =
  match read_exact fd 4 with
  | None -> None
  | Some hdr ->
    let len =
      (Char.code hdr.[0] lsl 24)
      lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8)
      lor Char.code hdr.[3]
    in
    if len > max then invalid_arg "Wire: oversized frame";
    read_exact fd len

let frame_kind data = if String.length data > 5 then Some data.[5] else None
