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

let inv a ~m =
  let g, x, _ = egcd (Nat.rem a m) m in
  if not (Nat.is_one g) then failwith "Modular.inv: not invertible";
  Bigint.mod_nat x m

(* Montgomery's batch-inversion trick: one egcd plus 3(n-1) modular
   multiplications inverts n elements at once. Raises like [inv] if any
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
