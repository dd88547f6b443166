(* Product-scanning (Comba) Montgomery multiplication in base 2^52.

   Limbs are 52-bit (matching [Nat]); a limb product is formed from four
   26-bit half-limb products

     a*b = ah*bh*2^52 + (ah*bl + al*bh)*2^26 + al*bl

   as a double word (plo, phi) with plo < 2^53 and phi < 2^52 + 2^28.
   Native int products wrap mod 2^63, but the low 52 bits extracted with
   [land mask] are always exact.

   The 11 headroom bits above a 52-bit limb are what make the
   product-scanning shape fast: one output column accumulates every
   partial product that lands on it into a plain two-int accumulator
   (s0 for the plos, s1 for the phis) with NO per-product carry
   propagation — the products of a column are mutually independent, so
   the CPU pipelines them instead of stalling on a serial carry chain.
   Only at the end of a column is s0 split into an output limb and a
   carry folded into the next column. The column sums stay below 2^61
   for any k <= 128 limbs (6656-bit moduli), far beyond every modulus in
   the system; [create] enforces the bound.

   Reduction is the separated product-scanning (SPS) form: the full
   2k-limb product goes to a scratch vector, then a second column scan
   derives the Montgomery quotient digits mu_i and accumulates mu*n.
   One reduction implementation serves both the multiplication and the
   dedicated squaring (square columns compute each off-diagonal product once and
   double it — ~25% fewer half-limb multiplies, and squarings are ~3/4
   of every exponentiation).

   Codegen notes (no flambda): each scan is a top-level tail-recursive
   function whose parameters all fit the native-code argument registers,
   so the column and product state (i, c, s0, s1, carry) never touches
   the stack; a split is ONE interleaved array [l0; h0; l1; h1; ...] so
   a scan keeps two array pointers live instead of four and each
   product's halves share a cache line.

   Allocation: every public function makes one workspace (the product,
   the operand and quotient splits, the operand's limbs), chains all of
   its multiplications through it, and copies the result out into a
   fresh [Nat.t]. Nothing inside a loop allocates, and no workspace
   outlives its call, so the domains of a fan-out never share one. *)

let base_bits = 52
let base = 1 lsl base_bits
let mask = base - 1
let hbits = 26
let hmask = (1 lsl hbits) - 1

(* Half-limb splits of a k-limb operand, interleaved: element 2i is the
   low 26 bits of limb i, element 2i+1 the high 26. Every operand a
   product scan reads is in this form. *)
type split = int array

type ctx = {
  m : Nat.t;
  n : int array; (* modulus limbs, length k *)
  nsp : split; (* half-limb splits of n *)
  k : int;
  n0' : int; (* -m^-1 mod 2^52 *)
  r2sp : split; (* splits of R^2 mod m, for conversion in *)
  onesp : split; (* splits of the plain 1, for conversion out *)
}

(* One call's working state. The chained operand lives in [xsp] (its
   splits, which the next product reads) and [t] (its limbs, which the
   reduction writes); every multiplication reads xsp and overwrites
   both. *)
type workspace = {
  w : int array; (* 2k+1 limbs: the full product before reduction *)
  xsp : split; (* splits of the chained operand *)
  qsp : split; (* splits of the quotient digits mu_i *)
  t : int array; (* k+1 limbs: the chained operand; limb k is the overflow *)
}

let workspace k =
  {
    w = Array.make ((2 * k) + 1) 0;
    xsp = Array.make (2 * k) 0;
    qsp = Array.make (2 * k) 0;
    t = Array.make (k + 1) 0;
  }

let split_into k (a : int array) (sp : split) =
  for i = 0 to k - 1 do
    let x = Array.unsafe_get a i in
    Array.unsafe_set sp (2 * i) (x land hmask);
    Array.unsafe_set sp ((2 * i) + 1) (x lsr hbits)
  done

(* The splits of a value below 2^(52k), read from its limbs in place. *)
let split_nat k (a : Nat.t) (sp : split) =
  for i = 0 to k - 1 do
    let x = Nat.limb a i in
    Array.unsafe_set sp (2 * i) (x land hmask);
    Array.unsafe_set sp ((2 * i) + 1) (x lsr hbits)
  done

(* x >= y on limbs i down to 0. Top-level rather than a local closure,
   which would allocate on every reduction. *)
let rec geq_from (x : int array) (y : int array) i =
  if i < 0 then true else if x.(i) <> y.(i) then x.(i) > y.(i) else geq_from x y (i - 1)

(* t <- t - m; the caller has checked t >= m *)
let sub_modulus ctx (t : int array) =
  let k = ctx.k in
  let borrow = ref 0 in
  for i = 0 to k - 1 do
    let d = t.(i) - ctx.n.(i) - !borrow in
    if d < 0 then begin
      t.(i) <- d + base;
      borrow := 1
    end
    else begin
      t.(i) <- d;
      borrow := 0
    end
  done;
  t.(k) <- t.(k) - !borrow

(* Column scan of x * b into w: i walks the products (i, c-i) of column
   c, accumulating plos in s0 and phis in s1; at column end the limb is
   emitted and the carry folds into the next column. All mutable state
   rides in parameters (registers). *)
let rec mul_scan xsp bsp w km1 cmax c i hi s0 s1 =
  if i <= hi then begin
    let al = Array.unsafe_get xsp (2 * i) and ah = Array.unsafe_get xsp ((2 * i) + 1) in
    let j2 = 2 * (c - i) in
    let bl = Array.unsafe_get bsp j2 and bh = Array.unsafe_get bsp (j2 + 1) in
    let p0 = al * bl and p2 = ah * bh in
    let pm = (al * bh) + (ah * bl) in
    mul_scan xsp bsp w km1 cmax c (i + 1) hi
      (s0 + p0 + ((pm land hmask) lsl hbits))
      (s1 + p2 + (pm lsr hbits))
  end
  else begin
    Array.unsafe_set w c (s0 land mask);
    let carry = (s0 lsr base_bits) + s1 in
    let c = c + 1 in
    if c > cmax then carry
    else begin
      let lo = if c - km1 > 0 then c - km1 else 0 in
      let hi = if c < km1 then c else km1 in
      mul_scan xsp bsp w km1 cmax c lo hi carry 0
    end
  end

(* ws.w <- x * b, both given by their splits. *)
let comba_mul ctx ws (x : split) (b : split) =
  let k = ctx.k in
  let w = ws.w in
  let carry = mul_scan x b w (k - 1) ((2 * k) - 2) 0 0 0 0 0 in
  w.((2 * k) - 1) <- carry land mask;
  w.(2 * k) <- carry lsr base_bits

(* Squaring scan: pairs (i, c-i) with i < c-i contribute twice, the
   diagonal limb c/2 once on even columns (handled at column end, where
   2*(c/2) = c indexes its split directly). *)
let rec sqr_scan xsp w km1 cmax c i hi s0 s1 =
  if i <= hi then begin
    let al = Array.unsafe_get xsp (2 * i) and ah = Array.unsafe_get xsp ((2 * i) + 1) in
    let j2 = 2 * (c - i) in
    let bl = Array.unsafe_get xsp j2 and bh = Array.unsafe_get xsp (j2 + 1) in
    let p0 = al * bl and p2 = ah * bh in
    let pm = (al * bh) + (ah * bl) in
    sqr_scan xsp w km1 cmax c (i + 1) hi
      (s0 + (2 * (p0 + ((pm land hmask) lsl hbits))))
      (s1 + (2 * (p2 + (pm lsr hbits))))
  end
  else begin
    let s0, s1 =
      if c land 1 = 0 then begin
        let al = Array.unsafe_get xsp c and ah = Array.unsafe_get xsp (c + 1) in
        let dm = 2 * (al * ah) in
        (s0 + (al * al) + ((dm land hmask) lsl hbits), s1 + (ah * ah) + (dm lsr hbits))
      end
      else (s0, s1)
    in
    Array.unsafe_set w c (s0 land mask);
    let carry = (s0 lsr base_bits) + s1 in
    let c = c + 1 in
    if c > cmax then carry
    else begin
      let lo = if c - km1 > 0 then c - km1 else 0 in
      (* [asr] floors so c = 1 gives hi = 0 and c = 0 would give -1
         (plain [/] truncates toward zero) *)
      let hi = (c - 1) asr 1 in
      sqr_scan xsp w km1 cmax c lo hi carry 0
    end
  end

(* ws.w <- x * x with [x] given by its splits. *)
let comba_sqr ctx ws (x : split) =
  let k = ctx.k in
  let w = ws.w in
  let carry = sqr_scan x w (k - 1) ((2 * k) - 2) 0 0 (-1) 0 0 in
  w.((2 * k) - 1) <- carry land mask;
  w.(2 * k) <- carry lsr base_bits

(* Low-column reduction scan: column c accumulates w.(c) plus the mu*n
   products of the already-derived quotient digits, then derives digit
   mu_c and closes the column with mu_c * n_0 (zeroing the low 52 bits).
   The carry is the only value crossing columns. *)
let rec red_lo_scan qsp nsp w n0' kk c i s0 s1 =
  if i < c then begin
    let ml = Array.unsafe_get qsp (2 * i) and mh = Array.unsafe_get qsp ((2 * i) + 1) in
    let j2 = 2 * (c - i) in
    let nl = Array.unsafe_get nsp j2 and nh = Array.unsafe_get nsp (j2 + 1) in
    let q0 = ml * nl and q2 = mh * nh in
    let qm = (ml * nh) + (mh * nl) in
    red_lo_scan qsp nsp w n0' kk c (i + 1)
      (s0 + q0 + ((qm land hmask) lsl hbits))
      (s1 + q2 + (qm lsr hbits))
  end
  else begin
    let mu = s0 * n0' land mask in
    let ml = mu land hmask and mh = mu lsr hbits in
    Array.unsafe_set qsp (2 * c) ml;
    Array.unsafe_set qsp ((2 * c) + 1) mh;
    let nl = Array.unsafe_get nsp 0 and nh = Array.unsafe_get nsp 1 in
    let q0 = ml * nl and q2 = mh * nh in
    let qm = (ml * nh) + (mh * nl) in
    let s0 = s0 + q0 + ((qm land hmask) lsl hbits) in
    let s1 = s1 + q2 + (qm lsr hbits) in
    (* the low 52 bits of s0 are zero by choice of mu *)
    let carry = (s0 lsr base_bits) + s1 in
    let c = c + 1 in
    if c >= kk then carry
    else red_lo_scan qsp nsp w n0' kk c 0 (carry + Array.unsafe_get w c) 0
  end

(* High-column reduction scan: emits result limb c-k per column, plus
   the limb's half-splits straight into [xsp] so a chained follow-up
   multiplication or squaring of the result can skip its own
   [split_into] pass. *)
let rec red_hi_scan qsp nsp w t xsp kk c i s0 s1 =
  if i < kk then begin
    let ml = Array.unsafe_get qsp (2 * i) and mh = Array.unsafe_get qsp ((2 * i) + 1) in
    let j2 = 2 * (c - i) in
    let nl = Array.unsafe_get nsp j2 and nh = Array.unsafe_get nsp (j2 + 1) in
    let q0 = ml * nl and q2 = mh * nh in
    let qm = (ml * nh) + (mh * nl) in
    red_hi_scan qsp nsp w t xsp kk c (i + 1)
      (s0 + q0 + ((qm land hmask) lsl hbits))
      (s1 + q2 + (qm lsr hbits))
  end
  else begin
    let limb = s0 land mask in
    let c2 = 2 * (c - kk) in
    Array.unsafe_set t (c - kk) limb;
    Array.unsafe_set xsp c2 (limb land hmask);
    Array.unsafe_set xsp (c2 + 1) (limb lsr hbits);
    let carry = (s0 lsr base_bits) + s1 in
    let c = c + 1 in
    if c >= 2 * kk then carry
    else red_hi_scan qsp nsp w t xsp kk c (c - kk + 1) (carry + Array.unsafe_get w c) 0
  end

(* ws.t <- ws.w * R^-1 mod m (SPS Montgomery reduction of the
   double-wide product), with its splits in ws.xsp. The bound gives
   t < 2m with the overflow bit in t.(k); one subtraction normalizes. *)
let comba_reduce ctx ws =
  let k = ctx.k in
  let w = ws.w and qsp = ws.qsp and t = ws.t in
  let carry = red_lo_scan qsp ctx.nsp w ctx.n0' k 0 0 w.(0) 0 in
  let carry = red_hi_scan qsp ctx.nsp w t ws.xsp k k 1 (carry + w.(k)) 0 in
  t.(k) <- carry + w.(2 * k);
  if t.(k) <> 0 || geq_from t ctx.n (k - 1) then begin
    (* rare conditional subtract invalidates the emitted splits *)
    sub_modulus ctx t;
    split_into k t ws.xsp
  end

(* The chained operand times [b] (given by its splits). The product scan
   has consumed ws.xsp before [comba_reduce] rewrites it. *)
let mont_mul_chained ctx ws (b : split) =
  comba_mul ctx ws ws.xsp b;
  comba_reduce ctx ws

let mont_sqr_chained ctx ws =
  comba_sqr ctx ws ws.xsp;
  comba_reduce ctx ws

(* Multiply the chained operand by [x], or, while the product so far is
   still the empty one ([fresh]), just load [x]: exponentiations start
   from their first nonzero digit rather than from 1. *)
let acc_mul ctx ws fresh (x : split) =
  if fresh then Array.blit x 0 ws.xsp 0 (2 * ctx.k) else mont_mul_chained ctx ws x

(* Column accumulators hold up to k doubled plos (< 2^54 each) plus an
   inter-column carry; k = 128 keeps everything below 2^61 < 2^62. *)
let max_limbs = 128

let create m =
  if Nat.is_zero m || Nat.is_even m || Nat.compare m (Nat.of_int 3) < 0 then None
  else begin
    let k = Nat.limb_count m in
    if k > max_limbs then None
    else begin
      (* n0' = -n^{-1} mod 2^52 by Newton-Hensel lifting *)
      let n0 = Nat.limb m 0 in
      let inv = ref 1 in
      for _ = 1 to 6 do
        inv := !inv * (2 - (n0 * !inv)) land mask
      done;
      let n0' = (base - !inv) land mask in
      let split_of x =
        let sp = Array.make (2 * k) 0 in
        split_nat k x sp;
        sp
      in
      Some
        {
          m;
          n = Nat.limbs m;
          nsp = split_of m;
          k;
          n0';
          r2sp = split_of (Nat.rem (Nat.shift_left Nat.one (2 * base_bits * k)) m);
          onesp = split_of Nat.one;
        }
    end
  end

(* ---------------- conversions through a workspace ---------------- *)

let reduced ctx a = if Nat.compare a ctx.m < 0 then a else Nat.rem a ctx.m

(* The chained operand <- a*R mod m. *)
let load ctx ws a =
  split_nat ctx.k (reduced ctx a) ws.xsp;
  mont_mul_chained ctx ws ctx.r2sp

(* The chained operand out of Montgomery form, as a fresh value. *)
let unload ctx ws =
  mont_mul_chained ctx ws ctx.onesp;
  Nat.of_limb_prefix ws.t ctx.k

(* Digit [i] of [w] bits read straight out of the exponent's limbs. 52
   is a multiple of 4, so a 4-bit window never straddles a limb; a wider
   digit may, and then takes its top bits from the next limb. *)
let digit e ~w i =
  let bit = w * i in
  let limb = bit / base_bits in
  let off = bit - (limb * base_bits) in
  let d = Nat.limb e limb lsr off in
  let d = if off + w > base_bits then d lor (Nat.limb e (limb + 1) lsl (base_bits - off)) else d in
  d land ((1 lsl w) - 1)

(* Window table x^1..x^(2^w - 1) of the chained operand x, as splits;
   entry 0 is unused. Even entries are squarings of entry i/2 (cheaper
   than a general multiply); every entry is captured straight from the
   reduction's split output. Leaves the last entry chained. *)
let window_table ctx ws ~w : split array =
  let size = 1 lsl w in
  let tbl = Array.make size ctx.onesp in
  tbl.(1) <- Array.copy ws.xsp;
  for i = 2 to size - 1 do
    if i land 1 = 0 then comba_sqr ctx ws tbl.(i / 2) else comba_mul ctx ws tbl.(i - 1) tbl.(1);
    comba_reduce ctx ws;
    tbl.(i) <- Array.copy ws.xsp
  done;
  tbl

(* ---------------- public kernels ---------------- *)

(* a * b mod m in two reductions: mont(a, b) = ab/R, then
   mont(ab/R, R^2) = ab. Both operands are split from their limbs; b's
   splits borrow qsp, which the product scan reads in full before the
   reduction derives its quotient digits there. *)
let mul ctx a b =
  let k = ctx.k in
  let ws = workspace k in
  split_nat k (reduced ctx a) ws.xsp;
  split_nat k (reduced ctx b) ws.qsp;
  comba_mul ctx ws ws.xsp ws.qsp;
  comba_reduce ctx ws;
  mont_mul_chained ctx ws ctx.r2sp;
  Nat.of_limb_prefix ws.t k

(* Interleaved 4-bit windows over prepared tables: one shared run of
   squarings for all bases, each base's window table multiplied in at
   its own digits. For p bases of w windows this costs 4*w squarings
   (instead of p*4*w) plus one product per nonzero digit. A base whose
   exponent is zero needs no table. *)
let window = 4

let interleave ctx ws tables exps =
  let maxbits = Array.fold_left (fun acc e -> max acc (Nat.bit_length e)) 0 exps in
  let fresh = ref true in
  for i = ((maxbits + window - 1) / window) - 1 downto 0 do
    if not !fresh then
      for _ = 1 to window do
        mont_sqr_chained ctx ws
      done;
    for p = 0 to Array.length exps - 1 do
      let d = digit exps.(p) ~w:window i in
      if d <> 0 then begin
        acc_mul ctx ws !fresh tables.(p).(d);
        fresh := false
      end
    done
  done;
  if !fresh then Nat.one else unload ctx ws

let table_of ctx ws b =
  load ctx ws b;
  window_table ctx ws ~w:window

let multi_pow ctx pairs =
  let pairs = Array.of_list pairs in
  let ws = workspace ctx.k in
  let tables = Array.map (fun (b, e) -> if Nat.is_zero e then [||] else table_of ctx ws b) pairs in
  interleave ctx ws tables (Array.map snd pairs)

(* 4-bit fixed windows: a multi-exponentiation of one base. *)
let pow ctx b e = multi_pow ctx [ (b, e) ]

(* One window table per base, built only for a base some row raises,
   then one interleaved pass per row on the same workspace. *)
let multi_pow_rows ctx bases rows =
  if Array.exists (fun row -> Array.length row <> Array.length bases) rows then
    invalid_arg "Montgomery.multi_pow_rows: row width";
  let ws = workspace ctx.k in
  let tables =
    Array.mapi
      (fun p b ->
        if Array.for_all (fun row -> Nat.is_zero row.(p)) rows then [||] else table_of ctx ws b)
      bases
  in
  Array.map (interleave ctx ws tables) rows

(* ---------------- fixed-base combs ---------------- *)

type comb = { w : int; rows : split array array }

(* Row i is the window table of base^(2^(w*i)); row i+1's base is the
   square of row i's entry 2^(w-1). *)
let comb ctx base ~digit_bits:w ~rows =
  if w < 1 || w > 8 then invalid_arg "Montgomery.comb: digit_bits";
  let ws = workspace ctx.k in
  load ctx ws base;
  let c = Array.make rows [||] in
  for i = 0 to rows - 1 do
    if i > 0 then begin
      comba_sqr ctx ws c.(i - 1).(1 lsl (w - 1));
      comba_reduce ctx ws
    end;
    c.(i) <- window_table ctx ws ~w
  done;
  { w; rows = c }

(* One chained multiplication per nonzero digit, starting from the
   lowest one's entry. *)
let comb_pow ctx c e =
  let ws = workspace ctx.k in
  let fresh = ref true in
  for i = 0 to Array.length c.rows - 1 do
    let d = digit e ~w:c.w i in
    if d <> 0 then begin
      acc_mul ctx ws !fresh c.rows.(i).(d);
      fresh := false
    end
  done;
  if !fresh then Nat.one else unload ctx ws

(* A comb that lives for one call. A row of w-bit digits costs 2^w - 1
   multiplications to build and about one per exponent to use, so for
   c exponents of b bits the comb costs about (b / w) * (2^w - 1 + c).
   At w = 3 that is the least for 5 to 10 exponents (a Replace
   rewrite raises 9 or 10) at 128-bit and at 1,024-bit exponents, and
   12% above w = 2 at 3 exponents, the fewest a join pick raises. *)
let transient_digit_bits = 3

let pow_each ctx b es =
  let bits = List.fold_left (fun acc e -> max acc (Nat.bit_length e)) 0 es in
  let w = transient_digit_bits in
  let c = comb ctx b ~digit_bits:w ~rows:((bits + w - 1) / w) in
  List.map (comb_pow ctx c) es
