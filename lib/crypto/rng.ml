open Bignum

(* The generator consumes its DRBG in block units and hands bytes out of
   an internal buffer. Protocol code draws mostly 6-12 byte
   values (blinds, noise exponents); a per-draw [Drbg.generate] pays the
   full HMAC-DRBG tax each time (one HMAC per 32 bytes plus the two-HMAC
   key ratchet), which profiled as more expensive than the modexp the
   bytes feed. Chunked consumption amortizes the ratchet ~10x, and the
   delivered stream depends only on the seed and the cumulative byte
   count — not on how draws are partitioned. *)

type t = { d : Drbg.t; mutable buf : string; mutable pos : int; mutable chunk : int }

(* The refill size starts small and doubles up to [max_chunk]: a
   generator that draws little (a key derivation's fork, a test's
   generator) pays for the bytes it uses, while long-lived generators
   settle at the amortized-optimal size. The schedule depends only on the
   refill count, so the stream is still a pure function of the seed and
   cumulative byte count. *)
let min_chunk = 32

let max_chunk = 256

let of_drbg d = { d; buf = ""; pos = 0; chunk = min_chunk }

let create ~seed = of_drbg (Drbg.create ~seed:("sectopk.rng:" ^ seed))

let system () =
  let entropy =
    try
      let ic = open_in_bin "/dev/urandom" in
      let b = really_input_string ic 32 in
      close_in ic;
      b
    with _ ->
      Printf.sprintf "%d:%f:%d" (Unix.getpid ()) (Unix.gettimeofday ()) (Hashtbl.hash (Sys.getcwd ()))
  in
  of_drbg (Drbg.create ~seed:entropy)

let bytes t n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    if t.pos >= String.length t.buf then begin
      t.buf <- Drbg.generate t.d t.chunk;
      t.chunk <- min (2 * t.chunk) max_chunk;
      t.pos <- 0
    end;
    let take = min (n - !off) (String.length t.buf - t.pos) in
    Bytes.blit_string t.buf t.pos out !off take;
    t.pos <- t.pos + take;
    off := !off + take
  done;
  Bytes.unsafe_to_string out

let nat_bits t bits =
  if bits <= 0 then Nat.zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let x = Nat.of_bytes (bytes t nbytes) in
    Nat.shift_right x ((8 * nbytes) - bits)
  end

let nat_below t bound =
  if Nat.is_zero bound then invalid_arg "Rng.nat_below: zero bound";
  let bits = Nat.bit_length bound in
  let rec go () =
    let c = nat_bits t bits in
    if Nat.compare c bound < 0 then c else go ()
  in
  go ()

let unit_mod t n =
  let rec go () =
    let r = nat_below t n in
    if (not (Nat.is_zero r)) && Nat.is_one (Modular.gcd r n) then r else go ()
  in
  go ()

let int_below t bound =
  if bound <= 0 then invalid_arg "Rng.int_below: non-positive bound";
  Nat.to_int (nat_below t (Nat.of_int bound))

let bool t = Char.code (bytes t 1).[0] land 1 = 1

let shuffle t arr =
  let n = Array.length arr in
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp;
    let tp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tp
  done;
  perm

let fork t ~label = of_drbg (Drbg.create ~seed:(bytes t 32 ^ "fork:" ^ label))

(* the whole state: the buffered bytes, the position in them and the
   refill size all shape the stream *)
let copy t = { d = Drbg.copy t.d; buf = t.buf; pos = t.pos; chunk = t.chunk }
