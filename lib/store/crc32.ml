(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.  Used to
   checksum every on-disk store artifact: manifest, segment headers,
   segment blocks and the shard map. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Crc32.sub";
  let table = Lazy.force table in
  let crc = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let string s = sub s ~pos:0 ~len:(String.length s)
