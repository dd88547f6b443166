(* Order statistics over float samples. *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them (the
   default "exclusive" method); at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]

(* interquartile distance as a share of the median; 0 below two samples *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ -> (
    match quartiles xs with
    | [ q1; _; q3 ] -> (q3 -. q1) /. Float.abs (median xs)
    | _ -> assert false)
