(* A prepared key is the SHA-256 state after each pad block, so a message
   costs its own blocks and one outer block. Neither state is ever
   updated: every tag resumes from copies, and a key can serve several
   domains at once. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let absorb_pad key byte =
  let b = Bytes.make Sha256.block_size (Char.chr byte) in
  String.iteri (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor byte))) key;
  let ctx = Sha256.init () in
  Sha256.update ctx (Bytes.unsafe_to_string b);
  ctx

let prepare key =
  let key = if String.length key > Sha256.block_size then Sha256.digest key else key in
  { inner = absorb_pad key 0x36; outer = absorb_pad key 0x5c }

let mac_with k msg =
  let c = Sha256.copy k.inner in
  Sha256.update c msg;
  let inner = Sha256.finalize c in
  let c = Sha256.copy k.outer in
  Sha256.update c inner;
  Sha256.finalize c

let mac ~key msg = mac_with (prepare key) msg
let mac_hex ~key msg = Sha256.hex (mac ~key msg)
