let add a b ~m =
  let s = Nat.add a b in
  if Nat.compare s m >= 0 then Nat.sub s m else s

let sub a b ~m = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b

let mul_plain a b ~m = Nat.rem (Nat.mul a b) m

let pow_binary b e ~m =
  let b = ref (Nat.rem b m) and r = ref Nat.one in
  let nbits = Nat.bit_length e in
  for i = 0 to nbits - 1 do
    if Nat.nth_bit e i then r := mul_plain !r !b ~m;
    if i < nbits - 1 then b := mul_plain !b !b ~m
  done;
  !r

(* Montgomery contexts are cached per modulus: the whole system works with
   a handful of moduli (n, n^2, n^3 for two key pairs, plus the prime
   powers p, p^2, p^3 and q, q^2, q^3 of a key holder's CRT decryption).
   The shared table is guarded by a mutex for parallel protocol execution
   (Core.Pool), but taking a lock and hashing a limb array on every
   ciphertext add/modexp is measurable, so each domain keeps a small
   local memo in front of it. *)
let mont_cache : (Nat.t, Montgomery.ctx option) Hashtbl.t = Hashtbl.create 8

let mont_lock = Mutex.create ()

let mont_memo : (Nat.t * Montgomery.ctx option) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let mont_memo_max = 16

(* Memo lookups are top-level functions, not closures, so a hit
   allocates nothing. The whole memo is searched by physical equality
   first (the hot moduli are long-lived values threaded everywhere by
   reference), then by value. *)
let rec memo_phys m = function
  | [] -> raise_notrace Not_found
  | (m', c) :: tl -> if m' == m then c else memo_phys m tl

let rec memo_equal m = function
  | [] -> raise_notrace Not_found
  | (m', c) :: tl -> if Nat.equal m' m then c else memo_equal m tl

let mont_ctx m =
  let memo = Domain.DLS.get mont_memo in
  match memo_phys m !memo with
  | c -> c
  | exception Not_found -> (
    match memo_equal m !memo with
    | c -> c
    | exception Not_found ->
      Mutex.lock mont_lock;
      let c =
        match Hashtbl.find_opt mont_cache m with
        | Some c -> c
        | None ->
          if Hashtbl.length mont_cache > 64 then Hashtbl.reset mont_cache;
          let c = Montgomery.create m in
          Hashtbl.add mont_cache m c;
          c
      in
      Mutex.unlock mont_lock;
      let keep = List.filteri (fun i _ -> i < mont_memo_max - 1) !memo in
      memo := (m, c) :: keep;
      c)

(* Ciphertext adds ([Paillier.add]) funnel through here on every depth of
   every protocol; the cached Montgomery context replaces the Knuth trial
   division of [Nat.rem (Nat.mul a b) m] with two divisionless CIOS
   passes. Even moduli (no context) keep the plain path. *)
let mul a b ~m =
  match mont_ctx m with Some ctx -> Montgomery.mul ctx a b | None -> mul_plain a b ~m

let pow b e ~m =
  Obs.bump Obs.Metrics.Modexp;
  if Nat.is_one m then Nat.zero
  else begin
    match mont_ctx m with
    | Some ctx when Nat.bit_length e > 8 -> Montgomery.pow ctx b e
    | _ -> pow_binary b e ~m
  end

(* Simultaneous multi-exponentiation: prod_i b_i^e_i mod m in one
   interleaved-window pass, sharing the squaring chain across all bases
   (see [Montgomery.multi_pow]). Counts as a single modexp —
   which it is, cost-wise. *)
let multi_pow pairs ~m =
  Obs.bump Obs.Metrics.Modexp;
  if Nat.is_one m then Nat.zero
  else begin
    match mont_ctx m with
    | Some ctx -> Montgomery.multi_pow ctx pairs
    | None ->
      List.fold_left
        (fun acc (b, e) -> mul_plain acc (pow_binary b e ~m) ~m)
        (Nat.rem Nat.one m) pairs
  end

(* [b^e] for every [e], from one comb of [b] that lives for this call;
   one modexp per result, as the separate [pow]s it replaces *)
let pow_each b es ~m =
  match mont_ctx m with
  | Some ctx ->
    Obs.add Obs.Metrics.Modexp (List.length es);
    Montgomery.pow_each ctx b es
  | None -> List.map (fun e -> pow b e ~m) es

(* per row, the product of the bases raised to that row's exponents,
   each base's window table shared by every row; one modexp per row *)
let multi_pow_rows bases rows ~m =
  match mont_ctx m with
  | Some ctx ->
    Obs.add Obs.Metrics.Modexp (Array.length rows);
    Montgomery.multi_pow_rows ctx bases rows
  | None -> Array.map (fun row -> multi_pow (Array.to_list (Array.combine bases row)) ~m) rows

let rec gcd a b = if Nat.is_zero b then a else gcd b (Nat.rem a b)

let lcm a b =
  if Nat.is_zero a || Nat.is_zero b then Nat.zero
  else Nat.div (Nat.mul a b) (gcd a b)

let egcd a b =
  (* Iterative extended Euclid on signed integers. *)
  let open Bigint in
  let rec go r0 r1 s0 s1 t0 t1 =
    if is_zero r1 then (to_nat r0, s0, t0)
    else begin
      let q = div_euclid r0 r1 in
      go r1 (sub r0 (mul q r1)) s1 (sub s0 (mul q s1)) t1 (sub t0 (mul q t1))
    end
  in
  go (of_nat a) (of_nat b) one zero zero one

(* ---- binary extended GCD on limbs (odd moduli) ----

   Every vector is k + 1 base-2^52 limbs, the top one only ever holding
   the carry of x + m. The invariants are x1 * a = u and x2 * a = v
   (mod m), from u = a, v = m, x1 = 1, x2 = 0: halving u halves x1 mod
   m (m is odd, so (x1 + m) / 2 when x1 is odd), and subtracting the
   smaller of u, v from the larger subtracts its x from the other's.
   Each step removes a bit from u or v, so the loop ends within
   2 * bits(m) steps, at u = 1 (x1 is the inverse), at v = 1 (x2 is),
   or at u = v > 1 (gcd(a, m) = u: no inverse). *)

let lbits = 52
let lmask = (1 lsl lbits) - 1

(* x <- x / 2, the low bit dropped *)
let halve (x : int array) k =
  for i = 0 to k - 1 do
    x.(i) <- (x.(i) lsr 1) lor ((x.(i + 1) land 1) lsl (lbits - 1))
  done;
  x.(k) <- x.(k) lsr 1

(* x <- x / 2 mod m for x in [0, m) *)
let halve_mod (x : int array) (m : int array) k =
  if x.(0) land 1 = 1 then begin
    let c = ref 0 in
    for i = 0 to k - 1 do
      let s = x.(i) + m.(i) + !c in
      x.(i) <- s land lmask;
      c := s lsr lbits
    done;
    x.(k) <- !c
  end;
  halve x k

(* x <- x - y, for x >= y; returns the borrow out of limb k - 1 *)
let sub_in_place (x : int array) (y : int array) k =
  let b = ref 0 in
  for i = 0 to k - 1 do
    let d = x.(i) - y.(i) - !b in
    x.(i) <- d land lmask;
    b := if d < 0 then 1 else 0
  done;
  !b

(* x <- x - y mod m, both in [0, m) *)
let sub_mod (x : int array) (y : int array) (m : int array) k =
  if sub_in_place x y k = 1 then begin
    let c = ref 0 in
    for i = 0 to k - 1 do
      let s = x.(i) + m.(i) + !c in
      x.(i) <- s land lmask;
      c := s lsr lbits
    done
  end

let rec cmp_from (x : int array) (y : int array) i =
  if i < 0 then 0 else if x.(i) <> y.(i) then compare x.(i) y.(i) else cmp_from x y (i - 1)

let is_one_limbs (x : int array) k =
  x.(0) = 1
  &&
  let rec rest i = i >= k || (x.(i) = 0 && rest (i + 1)) in
  rest 1

let inv_odd a m =
  let k = Nat.limb_count m in
  let vec x = Array.init (k + 1) (Nat.limb x) in
  let mv = vec m in
  let u = vec (Nat.rem a m) and v = vec m in
  let x1 = vec Nat.one and x2 = Array.make (k + 1) 0 in
  let strip u x =
    while u.(0) land 1 = 0 do
      halve u k;
      halve_mod x mv k
    done
  in
  if Nat.is_zero (Nat.rem a m) then failwith "Modular.inv: not invertible";
  strip u x1;
  (* u and v are odd from here on *)
  let rec loop () =
    if is_one_limbs u k then x1
    else if is_one_limbs v k then x2
    else begin
      match cmp_from u v (k - 1) with
      | 0 -> failwith "Modular.inv: not invertible"
      | c when c > 0 ->
        ignore (sub_in_place u v k);
        sub_mod x1 x2 mv k;
        strip u x1;
        loop ()
      | _ ->
        ignore (sub_in_place v u k);
        sub_mod x2 x1 mv k;
        strip v x2;
        loop ()
    end
  in
  Nat.of_limb_prefix (loop ()) k

let inv a ~m =
  if Nat.is_even m || Nat.compare m (Nat.of_int 3) < 0 then begin
    let g, x, _ = egcd (Nat.rem a m) m in
    if not (Nat.is_one g) then failwith "Modular.inv: not invertible";
    Bigint.mod_nat x m
  end
  else inv_odd a m

(* Montgomery's batch-inversion trick: one inversion plus 3(n-1)
   modular multiplications inverts n elements at once. Raises like [inv] if any
   element is not invertible (the whole batch shares one gcd). *)
let inv_many xs ~m =
  match xs with
  | [] -> []
  | [ x ] -> [ inv x ~m ]
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let pre = Array.make n Nat.one in
    let acc = ref (Nat.rem Nat.one m) in
    for i = 0 to n - 1 do
      pre.(i) <- !acc;
      acc := mul !acc arr.(i) ~m
    done;
    let inv_acc = ref (inv !acc ~m) in
    let out = Array.make n Nat.zero in
    for i = n - 1 downto 0 do
      out.(i) <- mul !inv_acc pre.(i) ~m;
      inv_acc := mul !inv_acc arr.(i) ~m
    done;
    Array.to_list out

let crt2 (r1, m1) (r2, m2) =
  (* x = r1 + m1 * ((r2 - r1) * m1^{-1} mod m2) *)
  let m1_inv = inv (Nat.rem m1 m2) ~m:m2 in
  let d = sub (Nat.rem r2 m2) (Nat.rem r1 m2) ~m:m2 in
  let k = mul d m1_inv ~m:m2 in
  Nat.add r1 (Nat.mul m1 k)
