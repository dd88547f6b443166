type t = { sign : int; mag : Nat.t }
(* Invariant: sign = 0 iff mag = 0; otherwise sign ∈ {-1, 1}. *)

let make sign mag = if Nat.is_zero mag then { sign = 0; mag = Nat.zero } else { sign; mag }

let zero = { sign = 0; mag = Nat.zero }
let one = { sign = 1; mag = Nat.one }
let of_nat n = make 1 n
let of_int n = if n >= 0 then make 1 (Nat.of_int n) else make (-1) (Nat.of_int (-n))
let to_nat x = x.mag
let sign x = x.sign
let is_zero x = x.sign = 0
let neg x = make (-x.sign) x.mag
let abs x = make (if x.sign = 0 then 0 else 1) x.mag

let add a b =
  match (a.sign, b.sign) with
  | 0, _ -> b
  | _, 0 -> a
  | sa, sb when sa = sb -> make sa (Nat.add a.mag b.mag)
  | sa, _ ->
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make sa (Nat.sub a.mag b.mag)
    else make (-sa) (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)
let mul a b = make (a.sign * b.sign) (Nat.mul a.mag b.mag)

(* Euclidean: remainder always in [0, |b|). *)
let divmod_euclid a b =
  if b.sign = 0 then raise Division_by_zero;
  let q0, r0 = Nat.divmod a.mag b.mag in
  if a.sign >= 0 then (make b.sign q0, make 1 r0)
  else if Nat.is_zero r0 then (make (-b.sign) q0, zero)
  else (make (-b.sign) (Nat.succ q0), make 1 (Nat.sub b.mag r0))

let div_euclid a b = fst (divmod_euclid a b)
let rem_euclid a b = snd (divmod_euclid a b)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then Nat.compare a.mag b.mag
  else Nat.compare b.mag a.mag

let equal a b = compare a b = 0

let mod_nat a n =
  let r = Nat.rem a.mag n in
  if a.sign >= 0 || Nat.is_zero r then r else Nat.sub n r

let to_string x =
  match x.sign with
  | 0 -> "0"
  | 1 -> Nat.to_string x.mag
  | _ -> "-" ^ Nat.to_string x.mag

let of_string s =
  if String.length s > 0 && s.[0] = '-' then
    make (-1) (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else make 1 (Nat.of_string s)

let pp fmt x = Format.pp_print_string fmt (to_string x)
