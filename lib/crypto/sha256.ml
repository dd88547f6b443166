(* SHA-256 on 32-bit words carried in native ints. Rotations and sums
   leave garbage above bit 31, which never reaches the low 32 bits (xor
   and or are bitwise, carries only move up), so each new state word is
   masked once. Whole blocks are compressed straight from the caller's
   bytes; only a partial block is copied into the context's buffer, and
   the padding is written there too. *)

let size = 32
let block_size = 64
let m32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* the partial block, then the padding *)
  mutable buf_len : int;
  mutable total : int; (* total bytes hashed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |];
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let copy c = { c with h = Array.copy c.h; buf = Bytes.copy c.buf; w = Array.make 64 0 }

(* a rotation whose bits above 31 are left for the caller's mask *)
let rot x n = (x lsr n) lor (x lsl (32 - n))

(* The 64-byte block at [off] of [blk] into [ctx.h]; allocates nothing. *)
let compress ctx blk off =
  let w = ctx.w in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be blk (off + (4 * t))) land m32)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let s0 = rot x 7 lxor rot x 18 lxor (x lsr 3) in
    let s1 = rot y 17 lxor rot y 19 lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land m32)
  done;
  let h = ctx.h in
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for t = 0 to 63 do
    let ev = !e and av = !a in
    let s1 = rot ev 6 lxor rot ev 11 lxor rot ev 25 in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = rot av 2 lxor rot av 13 lxor rot av 22 in
    let maj = (av land !b) lor (!c land (av lor !b)) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land m32
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land m32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land m32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land m32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land m32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land m32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land m32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land m32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land m32)

let update ctx s =
  let len = String.length s and src = Bytes.unsafe_of_string s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* complete a partial block first *)
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit src 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= block_size do
    compress ctx src !pos;
    pos := !pos + block_size
  done;
  if !pos < len then begin
    Bytes.blit src !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end

(* 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit length *)
let finalize ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= block_size - 8 then begin
    Bytes.fill buf (n + 1) (block_size - n - 1) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 (block_size - 8) '\000'
  end
  else Bytes.fill buf (n + 1) (block_size - 9 - n) '\000';
  Bytes.set_int64_be buf (block_size - 8) (Int64.of_int (8 * ctx.total));
  compress ctx buf 0;
  let out = Bytes.create size in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex d =
  let buf = Buffer.create (2 * String.length d) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf

let digest_hex s = hex (digest s)
