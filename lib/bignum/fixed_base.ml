(* Fixed-base windowed exponentiation (a comb over 6-bit digits).

   For a base g that is raised to many different exponents modulo the same
   m — Paillier/DJ noise generation raises the fixed n-th residue h on
   every encrypt and rerandomize — precompute

     comb.(i).(d) = g^(d * 64^i) mod m   (d in 1..63)

   once, after which g^e costs one Montgomery multiplication per nonzero
   6-bit digit of e: at most 16 for the 97-bit noise exponent (17 rows),
   where 4-bit digits took up to 24. A row costs 63 multiplications and
   63 entries to build and hold, about four times a 4-bit row; 8-bit
   digits would cut a pow to 12 products but hold 255 entries a row,
   which costs more memory than the benchmark's peak-RSS bound allows
   (DESIGN §4f). The rows are stored as the half-limb splits the
   multiplication reads, and a [pow] chains its products on one
   workspace ({!Montgomery.comb_pow}). *)

let digit_bits = 6

type t = {
  ctx : Montgomery.ctx;
  max_bits : int;
  comb : Montgomery.comb;
}

let create ctx ~base ~max_bits =
  if max_bits <= 0 then invalid_arg "Fixed_base.create: max_bits <= 0";
  let rows = (max_bits + digit_bits - 1) / digit_bits in
  { ctx; max_bits; comb = Montgomery.comb ctx base ~digit_bits ~rows }

(* Combs are cached per (base, exponent, modulus) with a bounded LRU
   policy: the steady state only ever combs a handful of noise bases
   (h mod n^2 and h2 mod n^3 per key pair, and the negated-noise powers
   h^(n-1) and h2^(n^2-1)), but a long-lived server handling many
   sessions would otherwise accumulate a comb per client key, and a comb
   is large (~max_bits/6 * 63 split residues). Each hit stamps the entry with
   a monotonically increasing tick; insertion beyond [capacity] evicts
   the least-recently used entry. Guarded by a mutex for the domain
   pool; a comb is immutable once built, so sharing across domains is
   safe. *)

type entry = { fb : t; mutable tick : int }

let cache : (Nat.t * Nat.t option * Nat.t, entry) Hashtbl.t = Hashtbl.create 8

let cache_lock = Mutex.create ()

let clock = ref 0

let capacity = ref 32

let default_capacity = 32

let evict_lru () =
  (* called with the lock held; drop entries until within capacity *)
  while Hashtbl.length cache > !capacity do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, best) when best.tick <= e.tick -> acc
          | _ -> Some (key, e))
        cache None
    in
    match victim with
    | Some (key, _) -> Hashtbl.remove cache key
    | None -> ()
  done

let set_capacity n =
  if n < 1 then invalid_arg "Fixed_base.set_capacity";
  Mutex.lock cache_lock;
  capacity := n;
  evict_lru ();
  Mutex.unlock cache_lock

let reset () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  capacity := default_capacity;
  Mutex.unlock cache_lock

let cached_count () =
  Mutex.lock cache_lock;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  n

(* the comb for base^exp (base when [exp] is [None]); the power is
   derived only when the comb is built, uncounted like the comb itself,
   so no op counter depends on the cache's history *)
let lookup ~base ~exp ~m ~max_bits:wanted =
  match Modular.mont_ctx m with
  | None -> None
  | Some ctx ->
    Mutex.lock cache_lock;
    incr clock;
    let key = (base, exp, m) in
    let fb =
      match Hashtbl.find_opt cache key with
      | Some e when wanted <= e.fb.max_bits ->
        e.tick <- !clock;
        e.fb
      | _ ->
        let base = match exp with None -> base | Some e -> Montgomery.pow ctx base e in
        let fb = create ctx ~base ~max_bits:wanted in
        Hashtbl.replace cache key { fb; tick = !clock };
        evict_lru ();
        fb
    in
    Mutex.unlock cache_lock;
    Some fb

let cached ~base ~m ~max_bits = lookup ~base ~exp:None ~m ~max_bits
let cached_power ~base ~exp ~m ~max_bits = lookup ~base ~exp:(Some exp) ~m ~max_bits

let pow t e =
  Obs.bump Obs.Metrics.Modexp_fixed_base;
  if Nat.bit_length e > t.max_bits then
    invalid_arg "Fixed_base.pow: exponent exceeds the precomputed width";
  Montgomery.comb_pow t.ctx t.comb e
