(* Wire codec property tests: every request/response/control constructor
   round-trips through encode/decode, the closed-form frame sizes
   ([Wire.request_bytes]/[response_bytes], what Mux charges) equal the
   encoded lengths the Inproc transport charges, and malformed frames
   (truncated, overlong, wrong magic/version/kind/tag, random mutations)
   always raise [Invalid_argument] — never any other exception, never a
   misparse of a valid frame into a different shape. *)

open Bignum
open Crypto
open Proto

let rng = Rng.create ~seed:"test_wire"
let pub, _sk = Paillier.keygen ~rand_bits:96 rng ~bits:128
let own_pub, _own_sk = Paillier.keygen ~rand_bits:96 rng ~bits:144
let keys = Wire.keys_of ~pub ~own_pub
let prf_keys = Prf.gen_keys rng 4

let ct i = Paillier.encrypt rng pub (Nat.of_int i)
let own i = Paillier.encrypt rng own_pub (Nat.of_int i)

let scored oid =
  {
    Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys:prf_keys oid;
    worst = ct 3;
    best = ct 9;
    seen = [| ct 1; ct 0 |];
  }

(* a SecDedup item: no best score *)
let masked oid =
  {
    Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys:prf_keys oid;
    worst = ct 3;
    seen = [| ct 1; ct 0 |];
  }

let pack () =
  {
    Enc_item.alphas = [| own 11; own 12; own 13; own 14 |];
    beta = own 21;
    sigmas = [| own 31; own 32 |];
  }

let tuple () =
  {
    Wire.score = ct 5;
    attrs = [| ct 1; ct 2; ct 3 |];
    r_escrow = [ own 7 ];
    a_escrow = [| own 8; own 9; own 10 |];
  }

(* One sample per constructor (plus empty-collection corners), covering
   all 15 requests and 11 responses. *)
let request_samples : (string * Wire.request) list =
  [ ("EncCompare", Wire.Sign_of (ct 42));
    ("SkNN", Wire.Mult (ct 3, ct 4));
    ("SBD", Wire.Lsb (ct 9));
    ( "SecDedup",
      Wire.Dedup { diffs = [ ct 1 ]; items = [ (masked "o1", pack ()); (masked "o2", pack ()) ] }
    );
    ("SecDedup", Wire.Dedup { diffs = []; items = [] });
    ("SecWorst", Wire.Worst_pick { diffs = [ ct 1; ct 2 ]; scores = [ ct 3; ct 4 ] });
    ("SecWorst", Wire.Worst_pick { diffs = []; scores = [] });
    ( "SecUpdate",
      Wire.Update_pick
        {
          mode = Wire.Replace;
          diffs = [ ct 1; ct 2 ];
          merged = [ [ ct 3; ct 4; ct 5 ] ];
          cells = [ [ ct 6; ct 7 ] ];
        } );
    ( "SecUpdate",
      Wire.Update_pick
        { mode = Wire.Eliminate; diffs = [ ct 1; ct 2 ]; merged = [ [ ct 3 ]; [ ct 4 ] ]; cells = [] }
    );
    ("SecDedup", Wire.Dedup_pick { diffs = [ ct 0 ]; items = [ [ ct 1; ct 2 ]; [ ct 3; ct 4 ] ] });
    ("SecDedup", Wire.Dedup_pick { diffs = []; items = [] });
    ("EncSort", Wire.Sort_items { keys = [ ct 8 ]; items = [ scored "o3" ] });
    ( "EncSort",
      Wire.Sort_gate
        { descending = true; kx = ct 1; ky = ct 2; x = scored "ox"; y = scored "oy" } );
    ("SecFilter", Wire.Filter [ tuple (); tuple () ]);
    ("EncSort", Wire.Rank_tuples [ (ct 1, ct 2, [| ct 3; ct 4 |]) ]);
    ("SkNN", Wire.Rank_keys [ ct 5; ct 6 ]);
    ("SkNN", Wire.Zero_slot [ ct 0; ct 1 ]);
    ("SecRefresh", Wire.Refresh { bottoms = [ ct 4; ct 5 ]; bits = [ ct 1; ct 0; ct 0; ct 1 ] });
    ("SecRefresh", Wire.Refresh { bottoms = []; bits = [] });
    ( "SecJoin",
      Wire.Join_pick { diffs = [ ct 0; ct 1 ]; fields = [ [ ct 3; ct 4 ]; [ ct 5; ct 6 ] ] } );
    ("SecJoin", Wire.Join_pick { diffs = []; fields = [] });
    ( "EncSort",
      Wire.Batch
        [ Wire.Sign_of (ct 1);
          Wire.Zero_slot [ ct 2; ct 3 ];
          Wire.Join_pick { diffs = [ ct 4 ]; fields = [ [] ] };
          Wire.Mult (ct 5, ct 6) ] );
    ("EncSort", Wire.Batch []) ]

let response_samples : Wire.response list =
  [ Wire.Sign (-1);
    Wire.Sign 0;
    Wire.Sign 1;
    Wire.Ct (ct 12);
    Wire.Items [ (masked "o1", pack ()) ];
    Wire.Sorted [ scored "o1"; scored "o2" ];
    Wire.Pair (scored "oa", scored "ob");
    Wire.Tuples [ tuple () ];
    Wire.Ranked [ (ct 1, [| ct 2; ct 3 |]); (ct 4, [||]) ];
    Wire.Indices [ 0; 5; 2 ];
    Wire.Slot None;
    Wire.Slot (Some 3);
    Wire.Cts [ ct 4; ct 0 ];
    Wire.Cts [];
    Wire.Picked { cts = [ ct 1; ct 2 ]; flags = [ true; false ] };
    Wire.Picked { cts = [ ct 3 ]; flags = [] };
    Wire.Batch_resp [ Wire.Sign 1; Wire.Cts [ ct 0 ]; Wire.Ct (ct 7); Wire.Sign 0 ];
    Wire.Batch_resp [] ]

let control_samples : Wire.control list =
  [ Wire.Hello { seed = "abc"; key_bits = 128; rand_bits = Some 96; obs = true };
    Wire.Hello { seed = ""; key_bits = 256; rand_bits = None; obs = false };
    Wire.Stats_req ]

(* a registry snapshot with every metric kind, including fields past
   put_int's 30-bit cap (counter totals and histogram sums on a
   long-lived server legitimately exceed it) *)
let snapshot_sample : Obs.Registry.snapshot =
  [ ("exec_us",
     Obs.Registry.Histogram
       { Obs.Registry.hcount = 3; hsum = 5_000_000_123; hmin = 12; hmax = 4_999_999_999;
         hbuckets = [ (15, 2); (5_368_709_119, 1) ] });
    ("queue_depth", Obs.Registry.Gauge 2.5);
    ("served", Obs.Registry.Counter 7_000_000_000);
    ("worker_utilization", Obs.Registry.Gauge 0.);
    ("zeros", Obs.Registry.Histogram
       { Obs.Registry.hcount = 0; hsum = 0; hmin = 0; hmax = 0; hbuckets = [] }) ]

let client_samples : Wire.client_msg list =
  [ Wire.Query_req { token = "opaque token bytes" }; Wire.Query_req { token = "" } ]

let server_samples : Wire.server_msg list =
  [ Wire.Server_hello { n = 5822; m = 13; s = 4; key_bits = 128 };
    Wire.Server_hello { n = 1; m = 1; s = 64; key_bits = 65536 };
    Wire.Query_resp { top = [ scored "o1"; scored "o2" ]; halting_depth = 3; halted = true };
    Wire.Query_resp { top = []; halting_depth = 0; halted = false };
    Wire.Busy;
    Wire.Server_error "token rejected";
    Wire.Server_error "" ]

let control_reply_samples : Wire.control_reply list =
  [ Wire.Ok_ctl;
    Wire.Stats_resp snapshot_sample;
    Wire.Stats_resp [] ]

(* ---------------- round trips + closed-form sizes ---------------- *)

let test_request_roundtrip () =
  List.iteri
    (fun i (label, req) ->
      let s = Wire.encode_request keys ~session:(i * 3) ~label req in
      let session, label', req' = Wire.decode_request keys s in
      Alcotest.(check int) (Printf.sprintf "req %d session" i) (i * 3) session;
      Alcotest.(check string) (Printf.sprintf "req %d label" i) label label';
      Alcotest.(check bool) (Printf.sprintf "req %d payload" i) true (req = req');
      Alcotest.(check int)
        (Printf.sprintf "req %d closed-form size" i)
        (String.length s)
        (Wire.request_bytes keys ~label req))
    request_samples

let test_response_roundtrip () =
  List.iteri
    (fun i resp ->
      let s = Wire.encode_response keys resp in
      Alcotest.(check bool)
        (Printf.sprintf "resp %d payload" i)
        true
        (Wire.decode_response keys s = resp);
      Alcotest.(check int)
        (Printf.sprintf "resp %d closed-form size" i)
        (String.length s)
        (Wire.response_bytes keys resp))
    response_samples

let test_control_roundtrip () =
  List.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "control %d" i)
        true
        (Wire.decode_control (Wire.encode_control c) = c))
    control_samples;
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "control reply %d" i)
        true
        (Wire.decode_control_reply (Wire.encode_control_reply r) = r))
    control_reply_samples

let test_header_bytes () =
  (* the per-frame overhead constants used by Cost_model (cost_model.ml) *)
  let s = Wire.encode_request keys ~session:0 ~label:"EncCompare" (Wire.Sign_of (ct 1)) in
  Alcotest.(check int) "request header + ct"
    (Wire.request_header_bytes ~label:"EncCompare" + Paillier.ciphertext_bytes pub)
    (String.length s);
  let s = Wire.encode_response keys (Wire.Sign 1) in
  Alcotest.(check int) "response header + 1" (Wire.response_header_bytes + 1) (String.length s)

let test_client_server_roundtrip () =
  List.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "client msg %d" i)
        true
        (Wire.decode_client_msg (Wire.encode_client_msg c) = c))
    client_samples;
  List.iteri
    (fun i m ->
      Alcotest.(check bool)
        (Printf.sprintf "server msg %d" i)
        true
        (Wire.decode_server_msg keys (Wire.encode_server_msg keys m) = m))
    server_samples

(* ---------------- malformed frames ---------------- *)

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let all_frames () =
  List.map (fun (label, r) -> Wire.encode_request keys ~session:1 ~label r) request_samples
  @ List.map (Wire.encode_response keys) response_samples
  @ List.map Wire.encode_client_msg client_samples
  @ List.map (Wire.encode_server_msg keys) server_samples

let decoders (s : string) : (string * (unit -> unit)) list =
  [ ("request", fun () -> ignore (Wire.decode_request keys s));
    ("response", fun () -> ignore (Wire.decode_response keys s));
    ("control", fun () -> ignore (Wire.decode_control s));
    ("control-reply", fun () -> ignore (Wire.decode_control_reply s));
    ("client", fun () -> ignore (Wire.decode_client_msg s));
    ("server", fun () -> ignore (Wire.decode_server_msg keys s)) ]

(* any strict prefix of a valid frame must be rejected by every decoder *)
let test_truncated () =
  List.iteri
    (fun i s ->
      let n = String.length s in
      (* every short prefix, then a byte-granular sweep near the end *)
      let cuts = List.init (min n 32) Fun.id @ List.init (min n 32) (fun j -> n - 1 - j) in
      List.iter
        (fun cut ->
          if cut >= 0 && cut < n then
            let p = String.sub s 0 cut in
            List.iter
              (fun (who, f) ->
                expect_invalid (Printf.sprintf "frame %d cut %d (%s)" i cut who) f)
              (decoders p))
        cuts)
    (all_frames ())

let test_overlong () =
  List.iteri
    (fun i s ->
      List.iter
        (fun (who, f) ->
          expect_invalid (Printf.sprintf "frame %d trailing byte (%s)" i who) f)
        (decoders (s ^ "\x00")))
    (all_frames ())

let corrupt s pos byte =
  let b = Bytes.of_string s in
  Bytes.set b pos byte;
  Bytes.to_string b

let test_bad_header () =
  let s = Wire.encode_request keys ~session:5 ~label:"EncCompare" (Wire.Sign_of (ct 1)) in
  expect_invalid "wrong magic" (fun () ->
      ignore (Wire.decode_request keys (corrupt s 0 'X')));
  expect_invalid "wrong version" (fun () ->
      ignore (Wire.decode_request keys (corrupt s 4 '\xff')));
  expect_invalid "wrong tag" (fun () ->
      ignore (Wire.decode_request keys (corrupt s 6 '\xff')));
  (* kind mismatch: a request frame is not a response/control and vice versa *)
  expect_invalid "request as response" (fun () -> ignore (Wire.decode_response keys s));
  expect_invalid "request as control" (fun () -> ignore (Wire.decode_control s));
  let r = Wire.encode_response keys (Wire.Sign 1) in
  expect_invalid "response as request" (fun () -> ignore (Wire.decode_request keys r));
  Alcotest.(check (option char)) "kind peek req" (Some 'Q') (Wire.frame_kind s);
  Alcotest.(check (option char)) "kind peek resp" (Some 'P') (Wire.frame_kind r)

(* A retired tag is never reused, so a frame that carries one, from an
   older peer, is refused rather than misread: request tags 2, 3, 4
   (SecJoin's Damgård–Jurik rounds), 5, 6, 7 and 8 (the DGK comparison),
   11, 12 and 25 (SecJoin's pick with a group of diffs per combination),
   response tags 2, 4 and 5 (the DGK replies) and 6. The tag byte
   follows the magic, version and kind. *)
let test_retired_tags () =
  let req = Wire.encode_request keys ~session:0 ~label:"SecJoin" (Wire.Sign_of (ct 1)) in
  List.iter
    (fun tag ->
      expect_invalid (Printf.sprintf "request tag %d" tag) (fun () ->
          ignore (Wire.decode_request keys (corrupt req 6 (Char.chr tag)))))
    [ 2; 3; 4; 5; 6; 7; 8; 11; 12; 25 ];
  let resp = Wire.encode_response keys (Wire.Cts [ ct 1 ]) in
  List.iter
    (fun tag ->
      expect_invalid (Printf.sprintf "response tag %d" tag) (fun () ->
          ignore (Wire.decode_response keys (corrupt resp 6 (Char.chr tag)))))
    [ 2; 4; 5; 6 ]

(* nested batches are illegal in both directions: the encoder refuses to
   produce them and the decoder refuses hand-crafted ones *)
let test_nested_batch () =
  expect_invalid "encode nested batch req" (fun () ->
      ignore
        (Wire.encode_request keys ~session:0 ~label:"EncSort"
           (Wire.Batch [ Wire.Batch [ Wire.Sign_of (ct 1) ] ])));
  expect_invalid "encode nested batch resp" (fun () ->
      ignore (Wire.encode_response keys (Wire.Batch_resp [ Wire.Batch_resp [] ])));
  (* a singleton batch frame with its inner element tag patched to the
     batch tag: the decoder must reject it before touching the payload *)
  let label = "EncSort" in
  let s = Wire.encode_request keys ~session:0 ~label (Wire.Batch [ Wire.Lsb (ct 6) ]) in
  let inner_tag_pos = Wire.request_header_bytes ~label + 4 in
  expect_invalid "decode nested batch req" (fun () ->
      ignore (Wire.decode_request keys (corrupt s inner_tag_pos '\x13')));
  let r = Wire.encode_response keys (Wire.Batch_resp [ Wire.Sign 1 ]) in
  expect_invalid "decode nested batch resp" (fun () ->
      ignore (Wire.decode_response keys (corrupt r (Wire.response_header_bytes + 4) '\x0e')))

(* ---------------- multiplex frames ---------------- *)

let mux_op_samples : Wire.mux_op list =
  [ Wire.Mux_open { session = 1 };
    Wire.Mux_req { session = 1; label = "EncCompare"; req = Wire.Sign_of (ct 9) };
    Wire.Mux_open { session = 2 };
    Wire.Mux_fork { parent = 1; child = 3; label = "par:0" };
    Wire.Mux_req
      {
        session = 2;
        label = "EncSort";
        req = Wire.Batch [ Wire.Lsb (ct 4); Wire.Zero_slot [ ct 5; ct 6 ] ];
      };
    Wire.Mux_req { session = 3; label = "SkNN"; req = Wire.Zero_slot [ ct 7 ] };
    Wire.Mux_join { parent = 1; child = 3 };
    Wire.Mux_close { session = 2 };
    Wire.Mux_close { session = 1 } ]

let mux_reply_samples : Wire.mux_reply list =
  [ Wire.Mux_ok;
    Wire.Mux_answer (Wire.Sign (-1));
    Wire.Mux_ok;
    Wire.Mux_ok;
    Wire.Mux_answer (Wire.Batch_resp [ Wire.Sign 0; Wire.Cts [ ct 1; ct 0 ] ]);
    Wire.Mux_answer (Wire.Sign 1);
    Wire.Mux_ok;
    Wire.Mux_ok;
    Wire.Mux_ok ]

let test_mux_roundtrip () =
  let frame = Wire.encode_mux keys mux_op_samples in
  Alcotest.(check bool) "mux ops round trip" true (Wire.decode_mux keys frame = mux_op_samples);
  Alcotest.(check (option char)) "mux kind" (Some 'M') (Wire.frame_kind frame);
  let reply = Wire.encode_mux_replies keys mux_reply_samples in
  Alcotest.(check bool) "mux replies round trip" true
    (Wire.decode_mux_replies keys reply = mux_reply_samples);
  Alcotest.(check (option char)) "mux reply kind" (Some 'N') (Wire.frame_kind reply);
  (* empty frames are legal (a trip of pure session management has no
     requests; its reply frame echoes element-wise) *)
  Alcotest.(check bool) "empty mux" true (Wire.decode_mux keys (Wire.encode_mux keys []) = []);
  Alcotest.(check bool) "empty replies" true
    (Wire.decode_mux_replies keys (Wire.encode_mux_replies keys []) = [])

let test_mux_malformed () =
  let frame = Wire.encode_mux keys mux_op_samples in
  let reply = Wire.encode_mux_replies keys mux_reply_samples in
  (* truncation sweep: every strict prefix rejected *)
  let n = String.length frame in
  let cuts = List.init (min n 48) Fun.id @ List.init (min n 48) (fun j -> n - 1 - j) in
  List.iter
    (fun cut ->
      if cut >= 0 && cut < n then
        expect_invalid (Printf.sprintf "mux cut %d" cut) (fun () ->
            ignore (Wire.decode_mux keys (String.sub frame 0 cut))))
    cuts;
  let m = String.length reply in
  for cut = 0 to m - 1 do
    expect_invalid (Printf.sprintf "mux reply cut %d" cut) (fun () ->
        ignore (Wire.decode_mux_replies keys (String.sub reply 0 cut)))
  done;
  expect_invalid "mux trailing byte" (fun () ->
      ignore (Wire.decode_mux keys (frame ^ "\x00")));
  expect_invalid "mux reply trailing byte" (fun () ->
      ignore (Wire.decode_mux_replies keys (reply ^ "\x00")));
  (* kind confusion: mux frames are not requests/responses and vice versa *)
  expect_invalid "mux as request" (fun () -> ignore (Wire.decode_request keys frame));
  expect_invalid "mux as reply" (fun () -> ignore (Wire.decode_mux_replies keys frame));
  expect_invalid "reply as mux" (fun () -> ignore (Wire.decode_mux keys reply));
  expect_invalid "request as mux" (fun () ->
      ignore
        (Wire.decode_mux keys
           (Wire.encode_request keys ~session:0 ~label:"EncCompare" (Wire.Sign_of (ct 1)))));
  (* unknown op tag *)
  let hdr = 11 + 4 in
  expect_invalid "unknown mux op tag" (fun () ->
      ignore (Wire.decode_mux keys (corrupt frame hdr '\xfe')));
  expect_invalid "unknown mux reply tag" (fun () ->
      ignore (Wire.decode_mux_replies keys (corrupt reply hdr '\xfe')));
  (* nested batch inside a Mux_req: the encoder refuses to produce it and
     the decoder refuses a hand-patched one *)
  expect_invalid "encode nested batch in mux" (fun () ->
      ignore
        (Wire.encode_mux keys
           [ Wire.Mux_req
               {
                 session = 1;
                 label = "EncSort";
                 req = Wire.Batch [ Wire.Batch [ Wire.Lsb (ct 1) ] ];
               } ]));
  let single =
    Wire.encode_mux keys
      [ Wire.Mux_req
          { session = 1; label = "EncSort"; req = Wire.Batch [ Wire.Lsb (ct 6) ] } ]
  in
  (* op tag, session, label("EncSort"), batch tag, count, inner tag *)
  let inner_tag_pos = hdr + 1 + 4 + (4 + 7) + 1 + 4 in
  expect_invalid "decode nested batch in mux" (fun () ->
      ignore (Wire.decode_mux keys (corrupt single inner_tag_pos '\x13')))

(* stats frames: truncation sweep plus targeted field corruptions — the
   decoder re-validates what the registry guarantees (non-negative 8-byte
   integers, non-NaN gauges, histogram bucket counts summing to count) *)
let test_stats_malformed () =
  let frame = Wire.encode_control_reply (Wire.Stats_resp snapshot_sample) in
  let n = String.length frame in
  for cut = 0 to n - 1 do
    expect_invalid (Printf.sprintf "stats cut %d" cut) (fun () ->
        ignore (Wire.decode_control_reply (String.sub frame 0 cut)))
  done;
  expect_invalid "stats trailing byte" (fun () ->
      ignore (Wire.decode_control_reply (frame ^ "\x00")));
  (* locate a field by its unique encoded bytes, then corrupt in place *)
  let find needle =
    let nn = String.length needle in
    let rec go i =
      if i + nn > n then Alcotest.failf "pattern not found in stats frame"
      else if String.sub frame i nn = needle then i
      else go (i + 1)
    in
    go 0
  in
  let i64 v =
    String.init 8 (fun i -> Char.chr ((v lsr (56 - (8 * i))) land 0xff))
  in
  (* counter 7e9 with its sign bit set -> out of range *)
  let cpos = find (i64 7_000_000_000) in
  expect_invalid "negative i64 field" (fun () ->
      ignore (Wire.decode_control_reply (corrupt frame cpos '\x80')));
  (* gauge 2.5 patched to a NaN bit pattern *)
  let gpos = find "\x40\x04\x00\x00\x00\x00\x00\x00" in
  let nan_frame =
    String.sub frame 0 gpos ^ "\x7f\xf8\x00\x00\x00\x00\x00\x00"
    ^ String.sub frame (gpos + 8) (n - gpos - 8)
  in
  expect_invalid "NaN gauge" (fun () -> ignore (Wire.decode_control_reply nan_frame));
  (* exec_us histogram count 3 -> 4: disagrees with its bucket counts *)
  let hpos = find (i64 3 ^ i64 5_000_000_123) in
  expect_invalid "histogram count mismatch" (fun () ->
      ignore (Wire.decode_control_reply (corrupt frame (hpos + 7) '\x04')));
  (* hmin above hmax *)
  let mpos = find (i64 12 ^ i64 4_999_999_999) in
  (* byte 2 of hmin: lifts it to ~2^40, far above hmax *)
  expect_invalid "histogram min above max" (fun () ->
      ignore (Wire.decode_control_reply (corrupt frame (mpos + 2) '\xff')))

(* QCheck: single-byte mutations anywhere in any frame either raise
   [Invalid_argument] or decode to *something* — no other exception ever
   escapes (payload-byte mutations legitimately decode to different
   ciphertext values; that is not a parser failure). *)
let test_mutation_safety =
  let frames = Array.of_list (all_frames ()) in
  QCheck.Test.make ~count:500 ~name:"mutated frames never crash"
    QCheck.(triple (int_bound (Array.length frames - 1)) small_nat (int_bound 255))
    (fun (fi, pos, byte) ->
      let s = frames.(fi) in
      let s = corrupt s (pos mod String.length s) (Char.chr byte) in
      List.for_all
        (fun (_, f) ->
          try
            f ();
            true
          with Invalid_argument _ -> true)
        (decoders s))

(* random byte strings (arbitrary garbage) never crash a decoder *)
let test_garbage_safety =
  QCheck.Test.make ~count:500 ~name:"garbage never crashes"
    QCheck.(string_gen_of_size Gen.small_nat Gen.char)
    (fun s ->
      List.for_all
        (fun (_, f) ->
          try
            f ();
            true
          with Invalid_argument _ -> true)
        (decoders s))

(* A 4-byte prefix announcing 0x3fffffff bytes must be refused from the
   header alone: no payload buffer, no wait for bytes that never come.
   The read end is non-blocking, so a reader that went on to the payload
   fails with EAGAIN instead of hanging the suite. *)
let test_oversized_prefix () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
    (fun () ->
      Unix.set_nonblock r;
      ignore (Unix.write_substring w "\x3f\xff\xff\xff" 0 4);
      let before = Gc.allocated_bytes () in
      expect_invalid "0x3fffffff over a 64 KiB cap" (fun () -> Wire.read_frame ~max:65536 r);
      Alcotest.(check bool) "no payload allocation" true
        (Gc.allocated_bytes () -. before < 65536.);
      (* a frame within the cap still reads *)
      let frame = Wire.encode_control Wire.Stats_req in
      Wire.write_frame w frame;
      Alcotest.(check (option string)) "frame under the cap" (Some frame)
        (Wire.read_frame ~max:(String.length frame) r))

(* Round trips pass for any self-consistent format, so the bytes are pinned
   too: one SHA-256 over every sample frame (each length-prefixed) and
   every closed-form size, compared to the digest of the reference codec.
   A change here is a change of wire format. *)
let golden_frames_sha256 = "13e11dbc4fc8b16524aa6acac2581618e81249d8c8bb2701c477674d68009389"

let test_golden_frames () =
  let h = Sha256.init () in
  let add s =
    Sha256.update h (Printf.sprintf "%d:" (String.length s));
    Sha256.update h s
  in
  let size n = add (string_of_int n) in
  List.iteri
    (fun i (label, req) ->
      add (Wire.encode_request keys ~session:(i * 3) ~label req);
      size (Wire.request_bytes keys ~label req))
    request_samples;
  List.iter
    (fun resp ->
      add (Wire.encode_response keys resp);
      size (Wire.response_bytes keys resp))
    response_samples;
  List.iter (fun c -> add (Wire.encode_control c)) control_samples;
  List.iter (fun r -> add (Wire.encode_control_reply r)) control_reply_samples;
  List.iter (fun c -> add (Wire.encode_client_msg c)) client_samples;
  List.iter (fun m -> add (Wire.encode_server_msg keys m)) server_samples;
  add (Wire.encode_mux keys mux_op_samples);
  add (Wire.encode_mux_replies keys mux_reply_samples);
  add (Wire.encode_mux keys []);
  add (Wire.encode_mux_replies keys []);
  Alcotest.(check string) "frame digest" golden_frames_sha256 (Sha256.hex (Sha256.finalize h))

let suite =
  [ ( "roundtrip",
      [ Alcotest.test_case "requests" `Quick test_request_roundtrip;
        Alcotest.test_case "responses" `Quick test_response_roundtrip;
        Alcotest.test_case "controls" `Quick test_control_roundtrip;
        Alcotest.test_case "client/server msgs" `Quick test_client_server_roundtrip;
        Alcotest.test_case "mux frames" `Quick test_mux_roundtrip;
        Alcotest.test_case "header constants" `Quick test_header_bytes;
        Alcotest.test_case "golden frame digest" `Quick test_golden_frames ] );
    ( "malformed",
      [ Alcotest.test_case "truncated" `Quick test_truncated;
        Alcotest.test_case "overlong" `Quick test_overlong;
        Alcotest.test_case "bad header" `Quick test_bad_header;
        Alcotest.test_case "retired tags" `Quick test_retired_tags;
        Alcotest.test_case "nested batch" `Quick test_nested_batch;
        Alcotest.test_case "mux frames" `Quick test_mux_malformed;
        Alcotest.test_case "stats frames" `Quick test_stats_malformed;
        Alcotest.test_case "oversized length prefix" `Quick test_oversized_prefix;
        QCheck_alcotest.to_alcotest test_mutation_safety;
        QCheck_alcotest.to_alcotest test_garbage_safety ] ) ]

let () = Alcotest.run "wire" suite
