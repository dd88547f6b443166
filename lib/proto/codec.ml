(* The codec layer every byte format is built from; see codec.mli. *)

type reader = { data : string; mutable pos : int }

type 'a t = {
  put : Buffer.t -> 'a -> unit;
  get : reader -> 'a;
  size : 'a -> int;
  min : int;
}

let bad msg = invalid_arg ("Codec: " ^ msg)
let need r n = if n < 0 || r.pos + n > String.length r.data then bad "truncated input"

(* claim the next [n] bytes and return their offset *)
let take r n =
  need r n;
  let p = r.pos in
  r.pos <- p + n;
  p

let fixed n put get = { put; get; size = (fun _ -> n); min = n }

let conv dec enc c =
  {
    put = (fun b v -> c.put b (enc v));
    get = (fun r -> dec (c.get r));
    size = (fun v -> c.size (enc v));
    min = c.min;
  }

let check ok msg c =
  {
    c with
    get =
      (fun r ->
        let v = c.get r in
        if not (ok v) then bad msg;
        v);
  }

let unit = fixed 0 (fun _ () -> ()) (fun _ -> ())
let byte = fixed 1 Buffer.add_uint8 (fun r -> String.get_uint8 r.data (take r 1))

let bool =
  fixed 1
    (fun b v -> Buffer.add_uint8 b (Bool.to_int v))
    (fun r -> match byte.get r with 0 -> false | 1 -> true | _ -> bad "bad boolean")

(* 4 bytes, unsigned, refused outside [0, hi] in both directions *)
let upto what hi =
  let ok v = v >= 0 && v <= hi in
  fixed 4
    (fun b v ->
      if not (ok v) then bad (what ^ " out of range");
      Buffer.add_int32_be b (Int32.of_int v))
    (fun r ->
      let v = Int32.to_int (String.get_int32_be r.data (take r 4)) land 0xffff_ffff in
      if not (ok v) then bad (what ^ " out of range");
      v)

(* 30-bit non-negative: counts, sessions and small fields *)
let int = upto "int" 0x3fff_ffff

(* the full 32-bit range: checksums, store header fields, blob integers *)
let u32 = upto "u32" 0xffff_ffff

(* Telemetry integers (histogram sums, counter totals) outgrow [int]'s 30
   bits on a long-lived server: 8 bytes, non-negative. *)
let i64 =
  fixed 8
    (fun b v ->
      if v < 0 then bad "negative int64 field";
      Buffer.add_int64_be b (Int64.of_int v))
    (fun r ->
      let v = String.get_int64_be r.data (take r 8) in
      if Int64.shift_right_logical v 62 <> 0L then bad "int64 field out of range";
      Int64.to_int v)

let f64 =
  fixed 8
    (fun b v -> Buffer.add_int64_be b (Int64.bits_of_float v))
    (fun r ->
      let v = Int64.float_of_bits (String.get_int64_be r.data (take r 8)) in
      if Float.is_nan v then bad "NaN float field";
      v)

let string =
  {
    put =
      (fun b s ->
        int.put b (String.length s);
        Buffer.add_string b s);
    get =
      (fun r ->
        let n = int.get r in
        String.sub r.data (take r n) n);
    size = (fun s -> 4 + String.length s);
    min = 4;
  }

(* a zero-padded fixed-width natural: a ciphertext under a known key *)
let nat width of_nat to_nat =
  fixed width
    (fun b c ->
      let v = to_nat c in
      if Bignum.Nat.byte_length v > width then bad "value wider than field";
      Bignum.Nat.put_fixed b ~width v)
    (fun r -> of_nat (Bignum.Nat.of_bytes (String.sub r.data (take r width) width)))

let magic m c =
  let n = String.length m in
  {
    put =
      (fun b v ->
        Buffer.add_string b m;
        c.put b v);
    get =
      (fun r ->
        if String.sub r.data (take r n) n <> m then bad "bad magic";
        c.get r);
    size = (fun v -> n + c.size v);
    min = n + c.min;
  }

let pair a b =
  {
    put =
      (fun buf (x, y) ->
        a.put buf x;
        b.put buf y);
    get =
      (fun r ->
        let x = a.get r in
        (x, b.get r));
    size = (fun (x, y) -> a.size x + b.size y);
    min = a.min + b.min;
  }

let triple a b c =
  conv (fun (x, (y, z)) -> (x, y, z)) (fun (x, y, z) -> (x, (y, z))) (pair a (pair b c))

let quad a b c d =
  conv
    (fun ((w, x), (y, z)) -> (w, x, y, z))
    (fun (w, x, y, z) -> ((w, x), (y, z)))
    (pair (pair a b) (pair c d))

let sum_sizes c = Array.fold_left (fun acc x -> acc + c.size x) 0

(* Exactly [n] elements and no count: the count is the format's. *)
let array_n n c =
  {
    put =
      (fun b a ->
        if Array.length a <> n then bad "wrong element count";
        Array.iter (c.put b) a);
    get =
      (fun r ->
        need r (n * c.min);
        Array.init n (fun _ -> c.get r));
    size = sum_sizes c;
    min = n * c.min;
  }

(* Elements up to the end of the input, for a table whose count is
   implied by the bytes; only the last field of a format can be one,
   and its elements take at least one byte. *)
let rest c =
  {
    put = (fun b a -> Array.iter (c.put b) a);
    get =
      (fun r ->
        let acc = ref [] in
        while r.pos < String.length r.data do
          acc := c.get r :: !acc
        done;
        Array.of_list (List.rev !acc));
    size = sum_sizes c;
    min = 0;
  }

(* A count, then the elements. The count is bounded by the bytes left
   (every element takes at least [c.min]) and by [max] where the format
   caps the collection, before the elements are read. *)
let seq ~length ~iter ~fold ~init ?max c =
  {
    put =
      (fun b v ->
        int.put b (length v);
        iter (c.put b) v);
    get =
      (fun r ->
        let n = int.get r in
        need r (n * Stdlib.max 1 c.min);
        (match max with Some m when n > m -> bad "collection too large" | _ -> ());
        init n (fun _ -> c.get r));
    size = (fun v -> fold (fun acc x -> acc + c.size x) 4 v);
    min = 4;
  }

let list ?max c =
  seq ~length:List.length ~iter:List.iter ~fold:List.fold_left ~init:List.init ?max c

let array ?max c =
  seq ~length:Array.length ~iter:Array.iter ~fold:Array.fold_left ~init:Array.init ?max c

let option c =
  {
    put =
      (fun b v ->
        bool.put b (Option.is_some v);
        Option.iter (c.put b) v);
    get = (fun r -> if bool.get r then Some (c.get r) else None);
    size = (fun v -> 1 + Option.fold ~none:0 ~some:c.size v);
    min = 1;
  }

type 'a case = Case : int * 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

(* A tag byte naming the case, then [mid], then the case's payload. A
   value that no case projects cannot be encoded and a tag that no case
   claims cannot be decoded. *)
let tagged ~what mid cases =
  let no_case () = bad ("no " ^ what ^ " tag for this value") in
  let rec put b m v = function
    | [] -> no_case ()
    | Case (tag, c, _, proj) :: rest -> (
      match proj v with
      | Some x ->
        byte.put b tag;
        mid.put b m;
        c.put b x
      | None -> put b m v rest)
  in
  let rec size m v = function
    | [] -> no_case ()
    | Case (_, c, _, proj) :: rest -> (
      match proj v with Some x -> 1 + mid.size m + c.size x | None -> size m v rest)
  in
  let rec get tag r = function
    | [] -> bad ("unknown " ^ what ^ " tag")
    | Case (t, c, inj, _) :: rest -> if t = tag then inj (c.get r) else get tag r rest
  in
  let case_min acc (Case (_, c, _, _)) = Stdlib.min acc c.min in
  {
    put = (fun b (m, v) -> put b m v cases);
    get =
      (fun r ->
        let tag = byte.get r in
        let m = mid.get r in
        (m, get tag r cases));
    size = (fun (m, v) -> size m v cases);
    min = 1 + mid.min + List.fold_left case_min max_int cases;
  }

let variant ~what cases = conv snd (fun v -> ((), v)) (tagged ~what unit cases)

let encode c v =
  let b = Buffer.create 1024 in
  c.put b v;
  Buffer.contents b

let decode c what data =
  let r = { data; pos = 0 } in
  let v = c.get r in
  if r.pos <> String.length data then bad ("trailing bytes in " ^ what);
  v
