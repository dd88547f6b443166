open Crypto

let magic = "STKW"
let version = 1

type keys = {
  pub : Paillier.public;
  djpub : Damgard_jurik.public;
  own_pub : Paillier.public;
}

let keys_of ~pub ~djpub ~own_pub = { pub; djpub; own_pub }

type dedup_mode = Replace | Eliminate

type tuple = {
  score : Paillier.ciphertext;
  attrs : Paillier.ciphertext array;
  r_escrow : Paillier.ciphertext list; (* under own_pub: multiplicative escrows *)
  a_escrow : Paillier.ciphertext array; (* under own_pub: additive escrows *)
}

type request =
  | Sign_of of Paillier.ciphertext
  | Equality of Paillier.ciphertext list
  | Conjunction of Paillier.ciphertext list list
  | Recover of Damgard_jurik.ciphertext
  | Lift of Paillier.ciphertext list
  | Dgk_low_bits of { bits : int; z : Paillier.ciphertext }
  | Zero_any of Paillier.ciphertext list
  | Zero_test of Paillier.ciphertext
  | Mult of Paillier.ciphertext * Paillier.ciphertext
  | Lsb of Paillier.ciphertext
  | Dedup of {
      mode : dedup_mode;
      diffs : Paillier.ciphertext list;
      items : (Enc_item.scored * Enc_item.pack) list;
    }
  | Dup_flags of Damgard_jurik.ciphertext list
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
  | Batch of request list

type response =
  | Sign of int
  | Bits2 of Damgard_jurik.ciphertext list
  | Ct of Paillier.ciphertext
  | Dgk_bits of { bit_cts : Paillier.ciphertext list; parity : bool }
  | Bit of bool
  | Flags of bool list
  | Items of (Enc_item.scored * Enc_item.pack) list
  | Sorted of Enc_item.scored list
  | Pair of Enc_item.scored * Enc_item.scored
  | Tuples of tuple list
  | Ranked of (Paillier.ciphertext * Paillier.ciphertext array) list
  | Indices of int list
  | Slot of int option
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

(* ---------------- pairwise index order for SecDedup ---------------- *)

let pair_indices l =
  let acc = ref [] in
  for i = l - 1 downto 0 do
    for j = l - 1 downto i + 1 do
      acc := (i, j) :: !acc
    done
  done;
  Array.of_list !acc

(* ---------------- primitive writers / readers ---------------- *)

let put_int buf v =
  if v < 0 || v > 0x3fffffff then invalid_arg "Wire: int out of range";
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

(* Telemetry fields (histogram sums, counter totals) outgrow [put_int]'s
   30-bit cap on a long-lived server, so stats frames carry 8-byte
   big-endian non-negative integers instead. *)
let put_i64 buf v =
  if v < 0 then invalid_arg "Wire: negative int64 field";
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (56 - (8 * i))) land 0xff))
  done

let put_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (56 - (8 * i))) 0xffL)))
  done

let put_nat_fixed buf ~width n =
  let b = Bignum.Nat.to_bytes n in
  if String.length b > width then invalid_arg "Wire: value wider than field";
  Buffer.add_string buf (String.make (width - String.length b) '\000');
  Buffer.add_string buf b

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

type reader = { data : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.data then invalid_arg "Wire: truncated input"

let get_byte r =
  need r 1;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_int r =
  need r 4;
  let v =
    (Char.code r.data.[r.pos] lsl 24)
    lor (Char.code r.data.[r.pos + 1] lsl 16)
    lor (Char.code r.data.[r.pos + 2] lsl 8)
    lor Char.code r.data.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  if v > 0x3fffffff then invalid_arg "Wire: int out of range";
  v

let get_string r =
  let len = get_int r in
  need r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let get_i64 r =
  need r 8;
  if Char.code r.data.[r.pos] land 0x80 <> 0 then
    invalid_arg "Wire: int64 field out of range";
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + i]
  done;
  r.pos <- r.pos + 8;
  if !v < 0 then invalid_arg "Wire: int64 field out of range";
  !v

let get_f64 r =
  need r 8;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code r.data.[r.pos + i]))
  done;
  r.pos <- r.pos + 8;
  let v = Int64.float_of_bits !bits in
  if Float.is_nan v then invalid_arg "Wire: NaN float field";
  v

let get_nat_fixed r ~width =
  need r width;
  let s = String.sub r.data r.pos width in
  r.pos <- r.pos + width;
  Bignum.Nat.of_bytes s

let get_bool r =
  match get_byte r with
  | 0 -> false
  | 1 -> true
  | _ -> invalid_arg "Wire: bad boolean"

(* [get_count] bounds a collection length by the bytes that remain: every
   element occupies at least [item_width] bytes, so a hostile count cannot
   trigger a giant allocation before the [need] checks fire. *)
let get_count r ~item_width =
  let n = get_int r in
  need r (n * max 1 item_width);
  n

(* Every length-prefixed collection decodes through here: the count is
   bounded by the remaining bytes (via [get_count]) and, when the protocol
   caps the collection, by [max]; elements are then read in order. *)
let read_list ?max r ~item_width get_item =
  let n = get_count r ~item_width in
  (match max with
  | Some m when n > m -> invalid_arg "Wire: collection too large"
  | _ -> ());
  List.init n (fun _ -> get_item r)

let read_array ?max r ~item_width get_item =
  Array.of_list (read_list ?max r ~item_width get_item)

(* ---------------- ciphertext fields ---------------- *)

let ct_width keys = Paillier.ciphertext_bytes keys.pub
let own_width keys = Paillier.ciphertext_bytes keys.own_pub
let dj_width keys = Damgard_jurik.ciphertext_bytes keys.djpub

let put_ct keys buf c = put_nat_fixed buf ~width:(ct_width keys) (Paillier.to_nat c)
let put_own keys buf c = put_nat_fixed buf ~width:(own_width keys) (Paillier.to_nat c)
let put_dj keys buf c = put_nat_fixed buf ~width:(dj_width keys) (Damgard_jurik.to_nat c)

let get_ct keys r = Paillier.of_nat keys.pub (get_nat_fixed r ~width:(ct_width keys))
let get_own keys r = Paillier.of_nat keys.own_pub (get_nat_fixed r ~width:(own_width keys))
let get_dj keys r = Damgard_jurik.of_nat keys.djpub (get_nat_fixed r ~width:(dj_width keys))

let put_ct_list keys buf cs =
  put_int buf (List.length cs);
  List.iter (put_ct keys buf) cs

let get_ct_list keys r = read_list r ~item_width:(ct_width keys) (get_ct keys)

let put_dj_list keys buf cs =
  put_int buf (List.length cs);
  List.iter (put_dj keys buf) cs

let get_dj_list keys r = read_list r ~item_width:(dj_width keys) (get_dj keys)

(* ---------------- compound payloads ---------------- *)

let put_scored keys buf (s : Enc_item.scored) =
  let cells = Ehl.Ehl_plus.cells s.ehl in
  put_int buf (Array.length cells);
  Array.iter (put_ct keys buf) cells;
  put_ct keys buf s.worst;
  put_ct keys buf s.best;
  put_int buf (Array.length s.seen);
  Array.iter (put_ct keys buf) s.seen

let get_scored keys r : Enc_item.scored =
  let w = ct_width keys in
  let cells = read_array ~max:4096 r ~item_width:w (get_ct keys) in
  if Array.length cells = 0 then invalid_arg "Wire: bad cell count";
  let worst = get_ct keys r in
  let best = get_ct keys r in
  let seen = read_array ~max:4096 r ~item_width:w (get_ct keys) in
  { ehl = Ehl.Ehl_plus.of_cells cells; worst; best; seen }

let scored_size keys (s : Enc_item.scored) =
  8 + ((Ehl.Ehl_plus.length s.ehl + 2 + Array.length s.seen) * ct_width keys)

let put_pack keys buf (p : Enc_item.pack) =
  put_int buf (Array.length p.alphas);
  Array.iter (put_own keys buf) p.alphas;
  put_own keys buf p.beta;
  put_own keys buf p.gamma;
  put_int buf (Array.length p.sigmas);
  Array.iter (put_own keys buf) p.sigmas

let get_pack keys r : Enc_item.pack =
  let w = own_width keys in
  let alphas = read_array ~max:4096 r ~item_width:w (get_own keys) in
  if Array.length alphas = 0 then invalid_arg "Wire: bad alpha count";
  let beta = get_own keys r in
  let gamma = get_own keys r in
  let sigmas = read_array ~max:4096 r ~item_width:w (get_own keys) in
  { alphas; beta; gamma; sigmas }

let pack_size keys (p : Enc_item.pack) =
  8 + ((Array.length p.alphas + 2 + Array.length p.sigmas) * own_width keys)

let put_tuple keys buf (t : tuple) =
  put_ct keys buf t.score;
  put_int buf (Array.length t.attrs);
  Array.iter (put_ct keys buf) t.attrs;
  put_int buf (List.length t.r_escrow);
  List.iter (put_own keys buf) t.r_escrow;
  put_int buf (Array.length t.a_escrow);
  Array.iter (put_own keys buf) t.a_escrow

let get_tuple keys r : tuple =
  let score = get_ct keys r in
  let attrs = read_array ~max:4096 r ~item_width:(ct_width keys) (get_ct keys) in
  let r_escrow = read_list ~max:4096 r ~item_width:(own_width keys) (get_own keys) in
  let a_escrow = read_array ~max:4096 r ~item_width:(own_width keys) (get_own keys) in
  { score; attrs; r_escrow; a_escrow }

let tuple_size keys (t : tuple) =
  (ct_width keys * (1 + Array.length t.attrs))
  + 12
  + (own_width keys * (List.length t.r_escrow + Array.length t.a_escrow))

(* ---------------- frame header ----------------

   "STKW" | version | kind | tag | session (4 bytes); requests append a
   length-prefixed label naming the protocol for S2's trace and the
   bandwidth report. *)

let kind_request = 'Q'
let kind_response = 'P'
let kind_control = 'C'
let kind_control_reply = 'D'
let kind_mux = 'M'
let kind_mux_reply = 'N'

let header_size = 11
let request_header_bytes ~label = header_size + 4 + String.length label
let response_header_bytes = header_size

let put_header buf ~kind ~tag ~session =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf kind;
  Buffer.add_char buf (Char.chr tag);
  put_int buf session

let get_header r ~kind =
  need r 4;
  if String.sub r.data r.pos 4 <> magic then invalid_arg "Wire: bad magic";
  r.pos <- r.pos + 4;
  if get_byte r <> version then invalid_arg "Wire: unsupported version";
  if get_byte r <> Char.code kind then invalid_arg "Wire: unexpected frame kind";
  let tag = get_byte r in
  let session = get_int r in
  (tag, session)

let finish r what =
  if r.pos <> String.length r.data then invalid_arg ("Wire: trailing bytes in " ^ what)

(* ---------------- request codec ---------------- *)

(* smallest possible serialized [scored]: 1 cell, empty seen vector *)
let scored_min keys = 8 + (3 * ct_width keys)

let request_tag = function
  | Sign_of _ -> 1
  | Equality _ -> 2
  | Conjunction _ -> 3
  | Recover _ -> 4
  | Lift _ -> 5
  | Dgk_low_bits _ -> 6
  | Zero_any _ -> 7
  | Zero_test _ -> 8
  | Mult _ -> 9
  | Lsb _ -> 10
  | Dedup _ -> 11
  | Dup_flags _ -> 12
  | Sort_items _ -> 13
  | Sort_gate _ -> 14
  | Filter _ -> 15
  | Rank_tuples _ -> 16
  | Rank_keys _ -> 17
  | Zero_slot _ -> 18
  | Batch _ -> 19

let batch_request_tag = 19

(* A batch element is 1 tag byte plus its payload; the smallest payload is
   an empty ciphertext list's 4-byte count. *)
let batch_item_min = 5

let rec put_request_payload keys buf req =
  match req with
  | Sign_of c | Zero_test c | Lsb c -> put_ct keys buf c
  | Equality cs | Lift cs | Zero_any cs | Rank_keys cs | Zero_slot cs ->
    put_ct_list keys buf cs
  | Conjunction groups ->
    put_int buf (List.length groups);
    List.iter (put_ct_list keys buf) groups
  | Recover c -> put_dj keys buf c
  | Dgk_low_bits { bits; z } ->
    put_int buf bits;
    put_ct keys buf z
  | Mult (a, b) ->
    put_ct keys buf a;
    put_ct keys buf b
  | Dedup { mode; diffs; items } ->
    put_bool buf (mode = Eliminate);
    put_ct_list keys buf diffs;
    put_int buf (List.length items);
    List.iter
      (fun (it, pk) ->
        put_scored keys buf it;
        put_pack keys buf pk)
      items
  | Dup_flags cs -> put_dj_list keys buf cs
  | Sort_items { keys = ks; items } ->
    put_ct_list keys buf ks;
    put_int buf (List.length items);
    List.iter (put_scored keys buf) items
  | Sort_gate { descending; kx; ky; x; y } ->
    put_bool buf descending;
    put_ct keys buf kx;
    put_ct keys buf ky;
    put_scored keys buf x;
    put_scored keys buf y
  | Filter tuples ->
    put_int buf (List.length tuples);
    List.iter (put_tuple keys buf) tuples
  | Rank_tuples rows ->
    put_int buf (List.length rows);
    List.iter
      (fun (key, score, attrs) ->
        put_ct keys buf key;
        put_ct keys buf score;
        put_int buf (Array.length attrs);
        Array.iter (put_ct keys buf) attrs)
      rows
  | Batch reqs ->
    put_int buf (List.length reqs);
    List.iter
      (fun el ->
        (match el with Batch _ -> invalid_arg "Wire: nested batch" | _ -> ());
        Buffer.add_char buf (Char.chr (request_tag el));
        put_request_payload keys buf el)
      reqs

let encode_request keys ~session ~label req =
  let buf = Buffer.create 1024 in
  put_header buf ~kind:kind_request ~tag:(request_tag req) ~session;
  put_string buf label;
  put_request_payload keys buf req;
  Buffer.contents buf

let get_request_payload keys r ~tag =
  let w = ct_width keys in
  match tag with
  | 1 -> Sign_of (get_ct keys r)
  | 2 -> Equality (get_ct_list keys r)
  | 3 -> Conjunction (read_list r ~item_width:4 (get_ct_list keys))
  | 4 -> Recover (get_dj keys r)
  | 5 -> Lift (get_ct_list keys r)
  | 6 ->
    let bits = get_int r in
    if bits <= 0 || bits > 4096 then invalid_arg "Wire: bad bit width";
    Dgk_low_bits { bits; z = get_ct keys r }
  | 7 -> Zero_any (get_ct_list keys r)
  | 8 -> Zero_test (get_ct keys r)
  | 9 ->
    let a = get_ct keys r in
    let b = get_ct keys r in
    Mult (a, b)
  | 10 -> Lsb (get_ct keys r)
  | 11 ->
    let mode = if get_bool r then Eliminate else Replace in
    let diffs = get_ct_list keys r in
    let items =
      read_list r ~item_width:(scored_min keys) (fun r ->
          let it = get_scored keys r in
          let pk = get_pack keys r in
          (it, pk))
    in
    Dedup { mode; diffs; items }
  | 12 -> Dup_flags (get_dj_list keys r)
  | 13 ->
    let ks = get_ct_list keys r in
    let items = read_list r ~item_width:(scored_min keys) (get_scored keys) in
    Sort_items { keys = ks; items }
  | 14 ->
    let descending = get_bool r in
    let kx = get_ct keys r in
    let ky = get_ct keys r in
    let x = get_scored keys r in
    let y = get_scored keys r in
    Sort_gate { descending; kx; ky; x; y }
  | 15 -> Filter (read_list r ~item_width:(w + 12) (get_tuple keys))
  | 16 ->
    Rank_tuples
      (read_list r ~item_width:((2 * w) + 4) (fun r ->
           let key = get_ct keys r in
           let score = get_ct keys r in
           let attrs = read_array ~max:4096 r ~item_width:w (get_ct keys) in
           (key, score, attrs)))
  | 17 -> Rank_keys (get_ct_list keys r)
  | 18 -> Zero_slot (get_ct_list keys r)
  | _ -> invalid_arg "Wire: unknown request tag"

let decode_request keys data =
  let r = { data; pos = 0 } in
  let tag, session = get_header r ~kind:kind_request in
  let label = get_string r in
  let req =
    if tag = batch_request_tag then
      Batch
        (read_list r ~item_width:batch_item_min (fun r ->
             let t = get_byte r in
             if t = batch_request_tag then invalid_arg "Wire: nested batch";
             get_request_payload keys r ~tag:t))
    else get_request_payload keys r ~tag
  in
  finish r "request";
  (session, label, req)

(* ---------------- response codec ---------------- *)

let response_tag = function
  | Sign _ -> 1
  | Bits2 _ -> 2
  | Ct _ -> 3
  | Dgk_bits _ -> 4
  | Bit _ -> 5
  | Flags _ -> 6
  | Items _ -> 7
  | Sorted _ -> 8
  | Pair _ -> 9
  | Tuples _ -> 10
  | Ranked _ -> 11
  | Indices _ -> 12
  | Slot _ -> 13
  | Batch_resp _ -> 14

let batch_response_tag = 14

(* 1 tag byte + the 1-byte Sign/Bit payload *)
let batch_resp_item_min = 2

let rec put_response_payload keys buf resp =
  match resp with
  | Sign s ->
    if s < -1 || s > 1 then invalid_arg "Wire: bad sign";
    Buffer.add_char buf (Char.chr (s + 1))
  | Bits2 cs -> put_dj_list keys buf cs
  | Ct c -> put_ct keys buf c
  | Dgk_bits { bit_cts; parity } ->
    put_ct_list keys buf bit_cts;
    put_bool buf parity
  | Bit b -> put_bool buf b
  | Flags bs ->
    put_int buf (List.length bs);
    List.iter (put_bool buf) bs
  | Items items ->
    put_int buf (List.length items);
    List.iter
      (fun (it, pk) ->
        put_scored keys buf it;
        put_pack keys buf pk)
      items
  | Sorted items ->
    put_int buf (List.length items);
    List.iter (put_scored keys buf) items
  | Pair (x, y) ->
    put_scored keys buf x;
    put_scored keys buf y
  | Tuples tuples ->
    put_int buf (List.length tuples);
    List.iter (put_tuple keys buf) tuples
  | Ranked rows ->
    put_int buf (List.length rows);
    List.iter
      (fun (score, attrs) ->
        put_ct keys buf score;
        put_int buf (Array.length attrs);
        Array.iter (put_ct keys buf) attrs)
      rows
  | Indices is ->
    put_int buf (List.length is);
    List.iter (put_int buf) is
  | Slot s -> (
    match s with
    | None -> put_bool buf false
    | Some i ->
      put_bool buf true;
      put_int buf i)
  | Batch_resp resps ->
    put_int buf (List.length resps);
    List.iter
      (fun el ->
        (match el with Batch_resp _ -> invalid_arg "Wire: nested batch" | _ -> ());
        Buffer.add_char buf (Char.chr (response_tag el));
        put_response_payload keys buf el)
      resps

let encode_response keys resp =
  let buf = Buffer.create 1024 in
  put_header buf ~kind:kind_response ~tag:(response_tag resp) ~session:0;
  put_response_payload keys buf resp;
  Buffer.contents buf

let get_response_payload keys r ~tag =
  let w = ct_width keys in
  match tag with
  | 1 -> (
    match get_byte r with
    | 0 -> Sign (-1)
    | 1 -> Sign 0
    | 2 -> Sign 1
    | _ -> invalid_arg "Wire: bad sign")
  | 2 -> Bits2 (get_dj_list keys r)
  | 3 -> Ct (get_ct keys r)
  | 4 ->
    let bit_cts = get_ct_list keys r in
    let parity = get_bool r in
    Dgk_bits { bit_cts; parity }
  | 5 -> Bit (get_bool r)
  | 6 -> Flags (read_list r ~item_width:1 get_bool)
  | 7 ->
    Items
      (read_list r ~item_width:(scored_min keys) (fun r ->
           let it = get_scored keys r in
           let pk = get_pack keys r in
           (it, pk)))
  | 8 -> Sorted (read_list r ~item_width:(scored_min keys) (get_scored keys))
  | 9 ->
    let x = get_scored keys r in
    let y = get_scored keys r in
    Pair (x, y)
  | 10 -> Tuples (read_list r ~item_width:(w + 12) (get_tuple keys))
  | 11 ->
    Ranked
      (read_list r ~item_width:(w + 4) (fun r ->
           let score = get_ct keys r in
           let attrs = read_array ~max:4096 r ~item_width:w (get_ct keys) in
           (score, attrs)))
  | 12 -> Indices (read_list r ~item_width:4 get_int)
  | 13 -> if get_bool r then Slot (Some (get_int r)) else Slot None
  | _ -> invalid_arg "Wire: unknown response tag"

let decode_response keys data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_response in
  let resp =
    if tag = batch_response_tag then
      Batch_resp
        (read_list r ~item_width:batch_resp_item_min (fun r ->
             let t = get_byte r in
             if t = batch_response_tag then invalid_arg "Wire: nested batch";
             get_response_payload keys r ~tag:t))
    else get_response_payload keys r ~tag
  in
  finish r "response";
  resp

(* ---------------- multiplex codec ----------------

   One frame carrying correlation-tagged ops from many concurrent
   queries (the round scheduler's merged trip), answered by one frame of
   element-wise replies in op order. The header session field is unused
   (each op carries its own session); op/reply tags, counts and payloads
   are validated exactly like every other codec path, and the reply
   decoder re-applies the nested-batch rule. *)

let mux_op_tag = function
  | Mux_open _ -> 1
  | Mux_close _ -> 2
  | Mux_fork _ -> 3
  | Mux_join _ -> 4
  | Mux_req _ -> 5

(* smallest op: 1 tag byte + a 4-byte session *)
let mux_op_min = 5

let encode_mux keys ops =
  let buf = Buffer.create 1024 in
  put_header buf ~kind:kind_mux ~tag:1 ~session:0;
  put_int buf (List.length ops);
  List.iter
    (fun op ->
      Buffer.add_char buf (Char.chr (mux_op_tag op));
      match op with
      | Mux_open { session } | Mux_close { session } -> put_int buf session
      | Mux_fork { parent; child; label } ->
        put_int buf parent;
        put_int buf child;
        put_string buf label
      | Mux_join { parent; child } ->
        put_int buf parent;
        put_int buf child
      | Mux_req { session; label; req } ->
        put_int buf session;
        put_string buf label;
        Buffer.add_char buf (Char.chr (request_tag req));
        put_request_payload keys buf req)
    ops;
  Buffer.contents buf

let decode_mux keys data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_mux in
  if tag <> 1 then invalid_arg "Wire: unknown mux tag";
  let ops =
    read_list r ~item_width:mux_op_min (fun r ->
        match get_byte r with
        | 1 -> Mux_open { session = get_int r }
        | 2 -> Mux_close { session = get_int r }
        | 3 ->
          let parent = get_int r in
          let child = get_int r in
          let label = get_string r in
          Mux_fork { parent; child; label }
        | 4 ->
          let parent = get_int r in
          let child = get_int r in
          Mux_join { parent; child }
        | 5 ->
          let session = get_int r in
          let label = get_string r in
          let t = get_byte r in
          let req =
            if t = batch_request_tag then
              Batch
                (read_list r ~item_width:batch_item_min (fun r ->
                     let t = get_byte r in
                     if t = batch_request_tag then invalid_arg "Wire: nested batch";
                     get_request_payload keys r ~tag:t))
            else get_request_payload keys r ~tag:t
          in
          Mux_req { session; label; req }
        | _ -> invalid_arg "Wire: unknown mux op tag")
  in
  finish r "mux frame";
  ops

let encode_mux_replies keys replies =
  let buf = Buffer.create 1024 in
  put_header buf ~kind:kind_mux_reply ~tag:1 ~session:0;
  put_int buf (List.length replies);
  List.iter
    (fun reply ->
      match reply with
      | Mux_ok -> Buffer.add_char buf '\001'
      | Mux_answer resp ->
        Buffer.add_char buf '\002';
        Buffer.add_char buf (Char.chr (response_tag resp));
        put_response_payload keys buf resp)
    replies;
  Buffer.contents buf

let decode_mux_replies keys data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_mux_reply in
  if tag <> 1 then invalid_arg "Wire: unknown mux reply tag";
  let replies =
    read_list r ~item_width:1 (fun r ->
        match get_byte r with
        | 1 -> Mux_ok
        | 2 ->
          let t = get_byte r in
          let resp =
            if t = batch_response_tag then
              Batch_resp
                (read_list r ~item_width:batch_resp_item_min (fun r ->
                     let t = get_byte r in
                     if t = batch_response_tag then invalid_arg "Wire: nested batch";
                     get_response_payload keys r ~tag:t))
            else get_response_payload keys r ~tag:t
          in
          Mux_answer resp
        | _ -> invalid_arg "Wire: unknown mux reply kind")
  in
  finish r "mux replies";
  replies

(* ---------------- closed-form frame sizes ----------------

   Exactly [String.length (encode_* ...)], asserted by the property tests:
   the Inproc transport charges these without materialising the frame. *)

let rec request_payload_bytes keys req =
  let w = ct_width keys and d = dj_width keys in
  match req with
  | Sign_of _ | Zero_test _ | Lsb _ -> w
  | Equality cs | Lift cs | Zero_any cs | Rank_keys cs | Zero_slot cs ->
    4 + (List.length cs * w)
  | Conjunction groups ->
    4 + List.fold_left (fun acc g -> acc + 4 + (List.length g * w)) 0 groups
  | Recover _ -> d
  | Dgk_low_bits _ -> 4 + w
  | Mult _ -> 2 * w
  | Dedup { diffs; items; _ } ->
    1
    + (4 + (List.length diffs * w))
    + 4
    + List.fold_left
        (fun acc (it, pk) -> acc + scored_size keys it + pack_size keys pk)
        0 items
  | Dup_flags cs -> 4 + (List.length cs * d)
  | Sort_items { keys = ks; items } ->
    4
    + (List.length ks * w)
    + 4
    + List.fold_left (fun acc it -> acc + scored_size keys it) 0 items
  | Sort_gate { x; y; _ } -> 1 + (2 * w) + scored_size keys x + scored_size keys y
  | Filter tuples ->
    4 + List.fold_left (fun acc t -> acc + tuple_size keys t) 0 tuples
  | Rank_tuples rows ->
    4
    + List.fold_left
        (fun acc (_, _, attrs) -> acc + (2 * w) + 4 + (Array.length attrs * w))
        0 rows
  | Batch reqs ->
    4 + List.fold_left (fun acc el -> acc + 1 + request_payload_bytes keys el) 0 reqs

let request_bytes keys ~label req =
  request_header_bytes ~label + request_payload_bytes keys req

let rec response_payload_bytes keys resp =
  let w = ct_width keys and d = dj_width keys in
  match resp with
  | Sign _ | Bit _ -> 1
  | Bits2 cs -> 4 + (List.length cs * d)
  | Ct _ -> w
  | Dgk_bits { bit_cts; _ } -> 4 + (List.length bit_cts * w) + 1
  | Flags bs -> 4 + List.length bs
  | Items items ->
    4
    + List.fold_left
        (fun acc (it, pk) -> acc + scored_size keys it + pack_size keys pk)
        0 items
  | Sorted items -> 4 + List.fold_left (fun acc it -> acc + scored_size keys it) 0 items
  | Pair (x, y) -> scored_size keys x + scored_size keys y
  | Tuples tuples -> 4 + List.fold_left (fun acc t -> acc + tuple_size keys t) 0 tuples
  | Ranked rows ->
    4
    + List.fold_left (fun acc (_, attrs) -> acc + w + 4 + (Array.length attrs * w)) 0 rows
  | Indices is -> 4 + (4 * List.length is)
  | Slot None -> 1
  | Slot (Some _) -> 5
  | Batch_resp resps ->
    4 + List.fold_left (fun acc el -> acc + 1 + response_payload_bytes keys el) 0 resps

let response_bytes keys resp = response_header_bytes + response_payload_bytes keys resp

(* ---------------- control codec ----------------

   Provisioning and telemetry frames: never part of the protocol
   bandwidth accounting (the paper's cost model has no analogue of them). *)

let encode_control ctl =
  let buf = Buffer.create 64 in
  (* tags 2-6 are retired: reusing one would misparse an older peer *)
  let tag = match ctl with Hello _ -> 1 | Stats_req -> 7 in
  put_header buf ~kind:kind_control ~tag ~session:0;
  (match ctl with
  | Hello { seed; key_bits; rand_bits; obs } ->
    put_string buf seed;
    put_int buf key_bits;
    (match rand_bits with
    | None -> put_bool buf false
    | Some b ->
      put_bool buf true;
      put_int buf b);
    put_bool buf obs
  | Stats_req -> ());
  Buffer.contents buf

let decode_control data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_control in
  let ctl =
    match tag with
    | 1 ->
      let seed = get_string r in
      let key_bits = get_int r in
      let rand_bits = if get_bool r then Some (get_int r) else None in
      let obs = get_bool r in
      Hello { seed; key_bits; rand_bits; obs }
    | 7 -> Stats_req
    | _ -> invalid_arg "Wire: unknown control tag"
  in
  finish r "control";
  ctl

(* Registry snapshot payload: count-prefixed entries of
   name | kind byte | kind-specific fields, with 8-byte integer fields
   ([put_i64]) since histogram sums outgrow [put_int]'s 30-bit cap. *)
let put_metric buf (m : Obs.Registry.metric) =
  match m with
  | Obs.Registry.Counter v ->
    Buffer.add_char buf '\001';
    put_i64 buf v
  | Obs.Registry.Gauge v ->
    Buffer.add_char buf '\002';
    put_f64 buf v
  | Obs.Registry.Histogram d ->
    Buffer.add_char buf '\003';
    put_i64 buf d.Obs.Registry.hcount;
    put_i64 buf d.hsum;
    put_i64 buf d.hmin;
    put_i64 buf d.hmax;
    put_int buf (List.length d.hbuckets);
    List.iter
      (fun (upper, n) ->
        put_i64 buf upper;
        put_i64 buf n)
      d.hbuckets

let get_metric r : Obs.Registry.metric =
  match get_byte r with
  | 1 -> Obs.Registry.Counter (get_i64 r)
  | 2 -> Obs.Registry.Gauge (get_f64 r)
  | 3 ->
    let hcount = get_i64 r in
    let hsum = get_i64 r in
    let hmin = get_i64 r in
    let hmax = get_i64 r in
    let hbuckets =
      read_list r ~item_width:16 (fun r ->
          let upper = get_i64 r in
          let n = get_i64 r in
          (upper, n))
    in
    if hcount > 0 && hmin > hmax then invalid_arg "Wire: histogram min above max";
    if hcount <> List.fold_left (fun acc (_, n) -> acc + n) 0 hbuckets then
      invalid_arg "Wire: histogram count disagrees with buckets";
    Obs.Registry.Histogram { hcount; hsum; hmin; hmax; hbuckets }
  | _ -> invalid_arg "Wire: unknown metric kind"

let put_snapshot buf (snap : Obs.Registry.snapshot) =
  put_int buf (List.length snap);
  List.iter
    (fun (name, m) ->
      put_string buf name;
      put_metric buf m)
    snap

let get_snapshot r : Obs.Registry.snapshot =
  read_list r ~item_width:13 (fun r ->
      let name = get_string r in
      let m = get_metric r in
      (name, m))

let encode_control_reply reply =
  let buf = Buffer.create 64 in
  (* tags 2-3 are retired: reusing one would misparse an older peer *)
  let tag = match reply with Ok_ctl -> 1 | Stats_resp _ -> 4 in
  put_header buf ~kind:kind_control_reply ~tag ~session:0;
  (match reply with Ok_ctl -> () | Stats_resp snap -> put_snapshot buf snap);
  Buffer.contents buf

let decode_control_reply data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_control_reply in
  let reply =
    match tag with
    | 1 -> Ok_ctl
    | 4 -> Stats_resp (get_snapshot r)
    | _ -> invalid_arg "Wire: unknown control reply tag"
  in
  finish r "control reply";
  reply

(* ---------------- client <-> S1 front-end frames ----------------

   The public face of the serving stack (lib/server): a client ships an
   opaque Sectopk.Codec token blob, S1 answers with the scored top-k
   (still encrypted — decryption stays client-side), a typed Busy under
   admission-queue overflow, or a typed error.  Same header discipline
   as the S1 <-> S2 frames, under their own kind bytes. *)

let kind_client = 'U'
let kind_server = 'V'

type client_msg = Query_req of { token : string }

type server_msg =
  | Server_hello of { n : int; m : int; s : int; key_bits : int }
  | Query_resp of { top : Enc_item.scored list; halting_depth : int; halted : bool }
  | Busy
  | Server_error of string

let encode_client_msg msg =
  let buf = Buffer.create 64 in
  (match msg with
  | Query_req { token } ->
    put_header buf ~kind:kind_client ~tag:1 ~session:0;
    put_string buf token);
  Buffer.contents buf

let max_token_bytes = 65536

(* header + length-prefixed token: the largest valid client frame *)
let max_client_frame = header_size + 4 + max_token_bytes

let decode_client_msg data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_client in
  let msg =
    match tag with
    | 1 ->
      let token = get_string r in
      if String.length token > max_token_bytes then invalid_arg "Wire: oversized token";
      Query_req { token }
    | _ -> invalid_arg "Wire: unknown client tag"
  in
  finish r "client message";
  msg

let encode_server_msg keys msg =
  let buf = Buffer.create 256 in
  (match msg with
  | Server_hello { n; m; s; key_bits } ->
    put_header buf ~kind:kind_server ~tag:1 ~session:0;
    put_int buf n;
    put_int buf m;
    put_int buf s;
    put_int buf key_bits
  | Query_resp { top; halting_depth; halted } ->
    put_header buf ~kind:kind_server ~tag:2 ~session:0;
    put_int buf halting_depth;
    put_bool buf halted;
    put_int buf (List.length top);
    List.iter (put_scored keys buf) top
  | Busy -> put_header buf ~kind:kind_server ~tag:3 ~session:0
  | Server_error e ->
    put_header buf ~kind:kind_server ~tag:4 ~session:0;
    put_string buf e);
  Buffer.contents buf

let decode_server_msg keys data =
  let r = { data; pos = 0 } in
  let tag, _session = get_header r ~kind:kind_server in
  let msg =
    match tag with
    | 1 ->
      let n = get_int r in
      let m = get_int r in
      let s = get_int r in
      let key_bits = get_int r in
      if n <= 0 || m <= 0 || s <= 0 || s > 64 || key_bits <= 0 || key_bits > 65536 then
        invalid_arg "Wire: bad hello";
      Server_hello { n; m; s; key_bits }
    | 2 ->
      let halting_depth = get_int r in
      let halted = get_bool r in
      let top = read_list ~max:4096 r ~item_width:(scored_min keys) (get_scored keys) in
      Query_resp { top; halting_depth; halted }
    | 3 -> Busy
    | 4 -> Server_error (get_string r)
    | _ -> invalid_arg "Wire: unknown server tag"
  in
  finish r "server message";
  msg

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
