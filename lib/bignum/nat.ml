(* Arbitrary-precision naturals, base 2^52, little-endian limb arrays.

   Invariant: the array has no most-significant zero limb, so the
   representation of each value is unique and [compare] can go by length
   first.

   Base 2^52 packs twice as many bits per limb as the old base-2^26
   representation (retained verbatim as test/nat_ref.ml for differential
   testing), halving the limb count of every operand and with it the
   loop/carry overhead of schoolbook multiplication and CIOS Montgomery
   reduction. A 52x52-bit limb product no longer fits a 63-bit native
   int, so products are formed from 26-bit half-limbs:

     a = ah*2^26 + al,  b = bh*2^26 + bl
     a*b = ah*bh*2^52 + ((ah+al)(bh+bl) - ah*bh - al*bl)*2^26 + al*bl

   (three imuls per limb product via the Karatsuba identity). Every
   partial term is < 2^54 and the double-word accumulators stay below
   2^55, comfortably inside the 63-bit int. Native int products wrap
   mod 2^63, so extracting the low 52 bits with [land mask] is always
   exact even when an intermediate conceptually overflows.

   Division is the one place 52-bit limbs don't fit: Knuth's qhat
   estimate needs a two-limb-by-one-limb divide, which a native int only
   offers at 26 bits. [divmod_big] therefore unpacks to half-limbs,
   runs Algorithm D at base 2^26, and repacks — division is off the hot
   path (keygen, CRT setup, decimal I/O), so the narrow base there costs
   nothing that matters. *)

type t = int array

let base_bits = 52
let base = 1 lsl base_bits
let mask = base - 1

(* half-limb granularity used by multiplication splits and division *)
let hbits = 26
let hmask = (1 lsl hbits) - 1

let zero : t = [||]

let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (x : t) = Array.length x = 0
let is_one (x : t) = Array.length x = 1 && x.(0) = 1
let is_even (x : t) = Array.length x = 0 || x.(0) land 1 = 0
let limb_count (x : t) = Array.length x
let limbs (x : t) = Array.copy x
let limb (x : t) i = if i < Array.length x then x.(i) else 0

(* Strip most-significant zero limbs. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* One copy of the significant limbs among the first [len]. *)
let of_limb_prefix (a : int array) len : t =
  let n = ref len in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  Array.sub a 0 !n

let of_limbs (a : int array) : t = of_limb_prefix a (Array.length a)

let of_int n : t =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr base_bits) in
    let len = count 0 n in
    let a = Array.make len 0 in
    let v = ref n in
    for i = 0 to len - 1 do
      a.(i) <- !v land mask;
      v := !v lsr base_bits
    done;
    a
  end

let bit_length_arr (x : t) =
  let n = Array.length x in
  if n = 0 then 0
  else begin
    let top = x.(n - 1) in
    let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
    ((n - 1) * base_bits) + bits top 0
  end

let to_int_opt (x : t) =
  if bit_length_arr x > 62 then None
  else begin
    let acc = ref 0 in
    for i = Array.length x - 1 downto 0 do
      acc := (!acc lsl base_bits) lor x.(i)
    done;
    Some !acc
  end

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Nat.to_int: does not fit"

let equal (a : t) (b : t) = a = b

(* Top-level, not a local closure: the Montgomery kernels compare every
   operand against the modulus, and a closure would allocate each time. *)
let rec compare_from (a : t) (b : t) i =
  if i < 0 then 0
  else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
  else compare_from a b (i - 1)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b (la - 1)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry
      + (if i < la then Array.unsafe_get a i else 0)
      + (if i < lb then Array.unsafe_get b i else 0)
    in
    Array.unsafe_set r i (s land mask);
    carry := s lsr base_bits
  done;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: underflow";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d =
      Array.unsafe_get a i - (if i < lb then Array.unsafe_get b i else 0) - !borrow
    in
    if d < 0 then begin
      Array.unsafe_set r i (d + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set r i d;
      borrow := 0
    end
  done;
  normalize r

let succ x = add x one
let pred x = sub x one

let add_int (a : t) (n : int) =
  if n < 0 then invalid_arg "Nat.add_int: negative" else add a (of_int n)

(* Schoolbook multiplication; used directly below the Karatsuba cutoff.
   [b] is split into half-limbs once up front; each limb product is three
   imuls via the Karatsuba identity (see the module comment for bounds). *)
let mul_school (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let bl = Array.make lb 0 and bh = Array.make lb 0 and bs = Array.make lb 0 in
    for j = 0 to lb - 1 do
      let x = Array.unsafe_get b j in
      let lo = x land hmask and hi = x lsr hbits in
      Array.unsafe_set bl j lo;
      Array.unsafe_set bh j hi;
      Array.unsafe_set bs j (lo + hi)
    done;
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      if ai <> 0 then begin
        let al = ai land hmask in
        let ah = ai lsr hbits in
        let asum = al + ah in
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p0 = al * Array.unsafe_get bl j in
          let p2 = ah * Array.unsafe_get bh j in
          let pm = (asum * Array.unsafe_get bs j) - p0 - p2 in
          let plo = p0 + ((pm land hmask) lsl hbits) in
          let phi = p2 + (pm lsr hbits) in
          let s = Array.unsafe_get r (i + j) + plo + !carry in
          Array.unsafe_set r (i + j) (s land mask);
          carry := phi + (s lsr base_bits)
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = Array.unsafe_get r !k + !carry in
          Array.unsafe_set r !k (cur land mask);
          carry := cur lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let karatsuba_cutoff = 12

(* Split x into (low, high) at limb index k. *)
let split_at (x : t) k : t * t =
  let n = Array.length x in
  if n <= k then (x, zero)
  else (normalize (Array.sub x 0 k), Array.sub x k (n - k))

let shift_limbs (x : t) k : t =
  if is_zero x then zero
  else begin
    let n = Array.length x in
    let r = Array.make (n + k) 0 in
    Array.blit x 0 r k n;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_cutoff || lb < karatsuba_cutoff then mul_school a b
  else begin
    let k = (if la > lb then la else lb) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let mul_int (a : t) (n : int) =
  if n < 0 then invalid_arg "Nat.mul_int: negative"
  else if n = 0 || is_zero a then zero
  else if n <= hmask then begin
    (* n fits a half-limb, so a_i * n splits into two sub-2^52 products *)
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      let p0 = (ai land hmask) * n in
      let p1 = (ai lsr hbits) * n in
      let plo = p0 + ((p1 land hmask) lsl hbits) in
      let cur = plo + !carry in
      Array.unsafe_set r i (cur land mask);
      carry := (p1 lsr hbits) + (cur lsr base_bits)
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land mask;
      carry := !carry lsr base_bits;
      incr k
    done;
    normalize r
  end
  else mul a (of_int n)

let bit_length = bit_length_arr

let nth_bit (x : t) i =
  if i < 0 then invalid_arg "Nat.nth_bit";
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length x && (x.(limb) lsr off) land 1 = 1

let shift_left (x : t) s : t =
  if s < 0 then invalid_arg "Nat.shift_left";
  if is_zero x || s = 0 then x
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let n = Array.length x in
    let r = Array.make (n + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit x 0 r limb_shift n
    else begin
      (* take the outgoing high bits before the (wrapping) left shift *)
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let xi = x.(i) in
        r.(i + limb_shift) <- ((xi lsl bit_shift) land mask) lor !carry;
        carry := xi lsr (base_bits - bit_shift)
      done;
      r.(n + limb_shift) <- !carry
    end;
    normalize r
  end

let shift_right (x : t) s : t =
  if s < 0 then invalid_arg "Nat.shift_right";
  if is_zero x || s = 0 then x
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let n = Array.length x in
    if limb_shift >= n then zero
    else begin
      let m = n - limb_shift in
      let r = Array.make m 0 in
      if bit_shift = 0 then Array.blit x limb_shift r 0 m
      else
        for i = 0 to m - 1 do
          let lo = x.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < n then
              (x.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      normalize r
    end
  end

let divmod_int (a : t) (d : int) : t * int =
  if d <= 0 || d > hmask then invalid_arg "Nat.divmod_int: divisor out of range";
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  (* two half-limb division steps per limb; [r < d <= 2^26-1] keeps the
     partial dividends below 2^52 *)
  for i = n - 1 downto 0 do
    let xi = Array.unsafe_get a i in
    let hi = (!r lsl hbits) lor (xi lsr hbits) in
    let qh = hi / d in
    let lo = ((hi mod d) lsl hbits) lor (xi land hmask) in
    let ql = lo / d in
    r := lo mod d;
    Array.unsafe_set q i ((qh lsl hbits) lor ql)
  done;
  (normalize q, !r)

(* ---- division at half-limb granularity ---- *)

let hbase = 1 lsl hbits

(* unpack to base-2^26 half-limbs, little-endian, high zeros allowed *)
let to_half (x : t) : int array =
  let n = Array.length x in
  let a = Array.make (2 * n) 0 in
  for i = 0 to n - 1 do
    a.(2 * i) <- x.(i) land hmask;
    a.(2 * i + 1) <- x.(i) lsr hbits
  done;
  a

let of_half (a : int array) : t =
  let n = Array.length a in
  let r = Array.make ((n + 1) / 2) 0 in
  for i = 0 to n - 1 do
    if i land 1 = 0 then r.(i / 2) <- a.(i)
    else r.(i / 2) <- r.(i / 2) lor (a.(i) lsl hbits)
  done;
  normalize r

let strip_half (a : int array) : int array =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

(* shift a half-limb vector left by s < hbits bits, keeping an extra limb *)
let shl_half (a : int array) s : int array =
  let n = Array.length a in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let v = (a.(i) lsl s) lor !carry in
    r.(i) <- v land hmask;
    carry := v lsr hbits
  done;
  r.(n) <- !carry;
  r

let shr_half (a : int array) s : int array =
  if s = 0 then a
  else begin
    let n = Array.length a in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = a.(i) lsr s in
      let hi = if i + 1 < n then (a.(i + 1) lsl (hbits - s)) land hmask else 0 in
      r.(i) <- lo lor hi
    done;
    r
  end

(* Knuth TAOCP vol. 2, Algorithm D (4.3.1), run on base-2^26 half-limbs
   (the qhat estimate needs a two-limb-by-one-limb divide, which only
   fits a native int at 26 bits). The divisor is normalized by a left
   shift so its top half-limb has its high bit set, which bounds the
   qhat estimate error to at most 2 and makes the add-back branch rare. *)
let divmod_big (u0 : t) (v0 : t) : t * t =
  let u = strip_half (to_half u0) and v = strip_half (to_half v0) in
  let n = Array.length v in
  let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (acc + 1) in
  let shift = hbits - bits v.(n - 1) 0 in
  let u = shl_half u shift and v = strip_half (shl_half v shift) in
  let lu = Array.length u in
  let m = lu - n in
  (* working copy of u with one extra high limb *)
  let w = Array.make (lu + 1) 0 in
  Array.blit u 0 w 0 lu;
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) and vn2 = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let top = (w.(j + n) lsl hbits) lor w.(j + n - 1) in
    let qhat = ref (top / vn1) and rhat = ref (top mod vn1) in
    if !qhat >= hbase then begin
      rhat := !rhat + ((!qhat - (hbase - 1)) * vn1);
      qhat := hbase - 1
    end;
    let continue = ref true in
    while !continue && !rhat < hbase do
      let lhs = !qhat * vn2 in
      let rhs = (!rhat lsl hbits) lor (if j + n - 2 >= 0 then w.(j + n - 2) else 0) in
      if lhs > rhs then begin
        decr qhat;
        rhat := !rhat + vn1
      end
      else continue := false
    done;
    (* multiply and subtract: w[j..j+n] -= qhat * v *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr hbits;
      let d = w.(i + j) - (p land hmask) - !borrow in
      if d < 0 then begin
        w.(i + j) <- d + hbase;
        borrow := 1
      end
      else begin
        w.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = w.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back *)
      w.(j + n) <- d + hbase;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = w.(i + j) + v.(i) + !c in
        w.(i + j) <- s land hmask;
        c := s lsr hbits
      done;
      w.(j + n) <- (w.(j + n) + !c) land hmask
    end
    else w.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (of_half q, of_half (shr_half (Array.sub w 0 n) shift))

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 && b.(0) <= hmask then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_big a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow (b : t) (e : int) : t =
  if e < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let byte_length x = (bit_length x + 7) / 8

(* Limbs enter an accumulator from the top down and each whole byte
   leaves it as soon as it forms. [held] counts the accumulator's bits
   still to emit; it starts at the zero bits above the top limb up to the
   top byte's boundary, or below zero by the top limb's zero bits above
   that boundary. Under 8 bits stay held between limbs, so the
   accumulator never exceeds 59 bits. *)
let put_fixed b ~width (x : t) =
  let nbytes = byte_length x in
  if nbytes > width then invalid_arg "Nat.put_fixed: value wider than field";
  for _ = 1 to width - nbytes do
    Buffer.add_char b '\000'
  done;
  let n = Array.length x in
  let acc = ref 0 and held = ref ((8 * nbytes) - (base_bits * n)) in
  for i = n - 1 downto 0 do
    acc := (!acc lsl base_bits) lor Array.unsafe_get x i;
    held := !held + base_bits;
    while !held >= 8 do
      held := !held - 8;
      Buffer.add_uint8 b ((!acc lsr !held) land 0xff)
    done;
    acc := !acc land ((1 lsl !held) - 1)
  done

let to_bytes (x : t) : string =
  let n = byte_length x in
  let b = Buffer.create n in
  put_fixed b ~width:n x;
  Buffer.contents b

let of_bytes (s : string) : t =
  let n = String.length s in
  let nlimbs = ((8 * n) + base_bits - 1) / base_bits in
  let a = Array.make nlimbs 0 in
  for i = 0 to n - 1 do
    (* byte at string index i is byte (n-1-i) from the LS end *)
    let byte = Char.code s.[i] in
    let bitpos = 8 * (n - 1 - i) in
    let limb = bitpos / base_bits and off = bitpos mod base_bits in
    a.(limb) <- a.(limb) lor ((byte lsl off) land mask);
    if off > base_bits - 8 && limb + 1 < nlimbs then
      a.(limb + 1) <- a.(limb + 1) lor (byte lsr (base_bits - off))
  done;
  normalize a

let to_string (x : t) : string =
  if is_zero x then "0"
  else begin
    let chunks = ref [] in
    let v = ref x in
    while not (is_zero !v) do
      let q, r = divmod_int !v 10_000_000 in
      chunks := r :: !chunks;
      v := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) rest;
      Buffer.contents buf
  end

let of_string (s : string) : t =
  let s = if String.length s > 0 && s.[0] = '+' then String.sub s 1 (String.length s - 1) else s in
  if String.length s = 0 then invalid_arg "Nat.of_string: empty";
  let acc = ref zero in
  let pending = ref 0 and pending_len = ref 0 in
  String.iter
    (fun c ->
      if c = '_' then ()
      else if c < '0' || c > '9' then invalid_arg "Nat.of_string: bad digit"
      else begin
        pending := (!pending * 10) + (Char.code c - Char.code '0');
        incr pending_len;
        if !pending_len = 7 then begin
          acc := add_int (mul_int !acc 10_000_000) !pending;
          pending := 0;
          pending_len := 0
        end
      end)
    s;
  if !pending_len > 0 then begin
    let scale = ref 1 in
    for _ = 1 to !pending_len do
      scale := !scale * 10
    done;
    acc := add_int (mul_int !acc !scale) !pending
  end;
  !acc

let to_hex (x : t) : string =
  if is_zero x then "0"
  else begin
    let b = to_bytes x in
    let buf = Buffer.create (2 * String.length b) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
    (* strip a single leading zero nibble if present *)
    let s = Buffer.contents buf in
    if String.length s > 1 && s.[0] = '0' then String.sub s 1 (String.length s - 1) else s
  end

let of_hex (s : string) : t =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: bad digit"
  in
  let acc = ref zero in
  String.iter (fun c -> if c <> '_' then acc := add_int (shift_left !acc 4) (digit c)) s;
  !acc

let pp fmt x = Format.pp_print_string fmt (to_string x)
