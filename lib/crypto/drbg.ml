(* SP 800-90A §10.1.2. K is held prepared ([Hmac.prepare]): every HMAC
   under one K resumes from the pad states computed when that K was set,
   so [generate] prepares nothing of its own, and each update step
   prepares the one K it sets, for the V that follows and for every
   HMAC until the next update. *)
type t = { mutable k : Hmac.key; mutable v : string }

(* K = HMAC_K(V || 0x00 || data), V = HMAC_K(V); again with 0x01 when
   there is data. *)
let update t data =
  let step sep =
    t.k <- Hmac.prepare (Hmac.mac_with t.k (t.v ^ sep ^ data));
    t.v <- Hmac.mac_with t.k t.v
  in
  step "\x00";
  if String.length data > 0 then step "\x01"

let create ~seed =
  let t = { k = Hmac.prepare (String.make 32 '\x00'); v = String.make 32 '\x01' } in
  update t seed;
  t

let reseed t entropy = update t entropy

(* a prepared K and V are immutable: sharing them is copying the state *)
let copy t = { k = t.k; v = t.v }

let generate t n =
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    t.v <- Hmac.mac_with t.k t.v;
    Bytes.blit_string t.v 0 out !off (min Sha256.size (n - !off));
    off := !off + Sha256.size
  done;
  update t "";
  Bytes.unsafe_to_string out
