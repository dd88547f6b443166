(* SP 800-90A §10.1.2. Every HMAC under one K resumes from one
   preparation of it: [generate] prepares K once for its output loop and
   the update's first HMAC, and each update step prepares the K it sets
   for the V that follows. K is kept as bytes: a prepared key is larger,
   and a process can hold thousands of generators at once. *)
type t = { mutable k : string; mutable v : string }

(* K = HMAC_K(V || 0x00 || data), V = HMAC_K(V); again with 0x01 when
   there is data. [kk] is K prepared. *)
let update_with t kk data =
  let step kk sep =
    t.k <- Hmac.mac_with kk (t.v ^ sep ^ data);
    let kk = Hmac.prepare t.k in
    t.v <- Hmac.mac_with kk t.v;
    kk
  in
  let kk = step kk "\x00" in
  if String.length data > 0 then ignore (step kk "\x01")

let update t data = update_with t (Hmac.prepare t.k) data

let create ~seed =
  let t = { k = String.make 32 '\x00'; v = String.make 32 '\x01' } in
  update t seed;
  t

let reseed t entropy = update t entropy

(* K and V are immutable strings: sharing them is copying the state *)
let copy t = { k = t.k; v = t.v }

let generate t n =
  let kk = Hmac.prepare t.k in
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    t.v <- Hmac.mac_with kk t.v;
    Bytes.blit_string t.v 0 out !off (min Sha256.size (n - !off));
    off := !off + Sha256.size
  done;
  update_with t kk "";
  Bytes.unsafe_to_string out
