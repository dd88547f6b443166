type t = { fwd : int array; inv : int array }

let create ~key ~domain =
  if domain < 0 then invalid_arg "Prp.create";
  let rng = Rng.create ~seed:("prp:" ^ key) in
  let fwd = Array.init domain (fun i -> i) in
  ignore (Rng.shuffle rng fwd);
  let inv = Array.make domain 0 in
  Array.iteri (fun i v -> inv.(v) <- i) fwd;
  { fwd; inv }

let apply t i = t.fwd.(i)
let invert t i = t.inv.(i)
