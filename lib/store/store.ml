(* Durable on-disk encrypted index: versioned manifest + per-list segment
   files.  See store.mli and DESIGN.md §4e for the format; the invariants
   that matter are

   - the MANIFEST rename is the only commit point (crash safety),
   - every artifact is CRC-checksummed and every failure is a typed
     [Error], never a garbage entry,
   - segment bodies are fixed-width records in depth order, so a list
     prefix loads without touching the rest of the file, and
   - a store-backed fetch returns bytes identical to the in-memory
     relation it was built from. *)

open Crypto
module C = Proto.Codec

type error =
  | Missing of string
  | Bad_magic of string
  | Bad_version of { file : string; version : int }
  | Truncated of string
  | Corrupt of string
  | Key_mismatch of string

exception Error of error

let err e = raise (Error e)

let error_message = function
  | Missing f -> Printf.sprintf "missing file %s" f
  | Bad_magic f -> Printf.sprintf "%s: bad magic" f
  | Bad_version { file; version } -> Printf.sprintf "%s: unsupported version %d" file version
  | Truncated f -> Printf.sprintf "%s: truncated" f
  | Corrupt msg -> Printf.sprintf "corrupt store: %s" msg
  | Key_mismatch msg -> Printf.sprintf "key mismatch: %s" msg

let version = 1
let manifest_magic = "STKM"
let segment_magic = "STKS"
let manifest_name = "MANIFEST"
let segment_name ~gen list = Printf.sprintf "seg_%d_%d.stk" gen list

(* ---- sealed bytes ------------------------------------------------------

   Every file (and a segment's header) opens with its magic and the
   version byte and ends with a CRC-32 over everything before it. Opening
   checks magic and version with their typed errors, then the CRC, and
   only then decodes the bytes the CRC covers, so a codec failure there
   is [Corrupt]. *)

let versioned magic c = C.magic (magic ^ String.make 1 (Char.chr version)) c

let decode ~file c data =
  try C.decode c "file" data with Invalid_argument msg -> err (Corrupt (file ^ ": " ^ msg))

let check_prologue ~file magic data =
  let len = String.length data in
  if len < 4 then err (Truncated file);
  if String.sub data 0 4 <> magic then err (Bad_magic file);
  if len < 5 then err (Truncated file);
  let v = Char.code data.[4] in
  if v <> version then err (Bad_version { file; version = v })

(* [body], then its CRC-32 *)
let sealed body = body ^ C.encode C.u32 (Crc32.string body)

(* the value the bytes before [data]'s trailing CRC-32 decode to, once
   its prologue and that CRC check *)
let unseal ~file ~what magic c data =
  check_prologue ~file magic data;
  let len = String.length data in
  if len < 9 then err (Truncated file);
  let body = String.sub data 0 (len - 4) in
  if Crc32.string body <> decode ~file C.u32 (String.sub data (len - 4) 4) then
    err (Corrupt (Printf.sprintf "%s: %s checksum mismatch" file what));
  decode ~file c body

(* ---- file helpers ------------------------------------------------------ *)

let really_read fd file n =
  let buf = Bytes.create n in
  let rec go off =
    if off < n then begin
      let r = try Unix.read fd buf off (n - off) with Unix.Unix_error (EINTR, _, _) -> -1 in
      if r < 0 then go off
      else if r = 0 then err (Truncated file)
      else go (off + r)
    end
  in
  go 0;
  Bytes.unsafe_to_string buf

let read_whole_file path =
  let fd =
    try Unix.openfile path [ O_RDONLY ] 0
    with Unix.Unix_error (ENOENT, _, _) -> err (Missing path)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.fstat fd).st_size in
      really_read fd path len)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* Atomic publish: temp file, fsync, rename.  The caller fsyncs the
   directory once after the batch of renames. *)
let write_file_atomic ~dir name data =
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      write_all fd data;
      Unix.fsync fd);
  Unix.rename tmp (Filename.concat dir name)

let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ());
    Unix.close fd
  | exception Unix.Unix_error (_, _, _) -> ()

let file_size path = try (Unix.stat path).st_size with Unix.Unix_error (_, _, _) -> 0

(* ---- records ----------------------------------------------------------- *)

(* One entry: its s EHL+ cells, then its score, each a ciphertext
   zero-padded to the key's width. Fixed-width, so [min] is its size. *)
let record pub ~s =
  let ct = C.nat (Paillier.ciphertext_bytes pub) (Paillier.of_nat pub) Paillier.to_nat in
  C.conv
    (fun (cells, score) -> { Proto.Enc_item.ehl = Ehl.Ehl_plus.of_cells cells; score })
    (fun (e : Proto.Enc_item.entry) -> (Ehl.Ehl_plus.cells e.ehl, e.score))
    C.(pair (array_n s ct) ct)

(* ---- manifest ---------------------------------------------------------- *)

let fingerprint pub = Sha256.digest (Bignum.Nat.to_bytes pub.Paillier.n)
let fingerprint_field = C.(check (fun fp -> String.length fp <= 64) "bad fingerprint length" string)

type manifest = {
  man_gen : int;
  man_key_bits : int;
  man_width : int;
  man_n : int;
  man_m : int;
  man_s : int;
  man_brec : int;
  man_fp : string;
  man_seg_crcs : int array;
}

(* gen | key_bits | width, n | m | s | brec, the fingerprint, then each
   segment's header CRC *)
let manifest =
  C.(
    versioned manifest_magic
      (quad (triple u32 u32 u32) (quad u32 u32 u32 u32) fingerprint_field (rest u32))
    |> conv
         (fun ( (man_gen, man_key_bits, man_width),
                (man_n, man_m, man_s, man_brec),
                man_fp,
                man_seg_crcs ) ->
           { man_gen; man_key_bits; man_width; man_n; man_m; man_s; man_brec; man_fp; man_seg_crcs })
         (fun m ->
           ( (m.man_gen, m.man_key_bits, m.man_width),
             (m.man_n, m.man_m, m.man_s, m.man_brec),
             m.man_fp,
             m.man_seg_crcs ))
    |> check
         (fun m ->
           m.man_n > 0 && m.man_m > 0 && m.man_s > 0 && m.man_s <= 64 && m.man_brec > 0
           && m.man_width > 0)
         "bad dimensions"
    |> check
         (fun m -> Array.length m.man_seg_crcs = m.man_m)
         "segment table disagrees with attribute count")

let parse_manifest ~file data = unseal ~file ~what:"manifest" manifest_magic manifest data

let read_manifest ~dir =
  let path = Filename.concat dir manifest_name in
  parse_manifest ~file:path (read_whole_file path)

(* a manifest's or a shard map's key binding against the opening key *)
let check_key ~file pub ~key_bits ~width ~fp =
  if key_bits <> pub.Paillier.key_bits then
    err
      (Key_mismatch
         (Printf.sprintf "%s: built for a %d-bit key, opened with %d bits" file key_bits
            pub.Paillier.key_bits));
  if width <> Paillier.ciphertext_bytes pub then
    err (Key_mismatch (file ^ ": ciphertext width differs"));
  if not (String.equal fp (fingerprint pub)) then
    err (Key_mismatch (file ^ ": public-key fingerprint differs"))

(* ---- segments ---------------------------------------------------------- *)

(* gen | list | n, rec_bytes | brec | nblocks, then the per-block CRC
   table; the header's CRC and then the body of records follow *)
let seg_header =
  C.(versioned segment_magic (pair (pair (triple u32 u32 u32) (triple u32 u32 u32)) (rest u32)))

(* the header before its block table *)
let seg_prefix_bytes = seg_header.C.min

let encode_segment ~gen ~list ~n ~rec_bytes ~brec body =
  let nblocks = (n + brec - 1) / brec in
  let block_crc b =
    let first = b * brec in
    Crc32.sub body ~pos:(first * rec_bytes) ~len:(min brec (n - first) * rec_bytes)
  in
  let fields = ((gen, list, n), (rec_bytes, brec, nblocks)) in
  let header = C.encode seg_header (fields, Array.init nblocks block_crc) in
  let hcrc = Crc32.string header in
  (String.concat "" [ header; C.encode C.u32 hcrc; body ], hcrc)

type seg = {
  seg_fd : Unix.file_descr;
  seg_file : string;
  seg_header_bytes : int;
  seg_block_crcs : int array;
}

(* Open one segment file and validate its header against the manifest
   (which carries the expected header CRC, binding the published
   manifest to these exact segment bytes). The block count is checked
   against the manifest before the table it sizes is read. *)
let open_segment ~dir man ~list ~rec_bytes =
  let path = Filename.concat dir (segment_name ~gen:man.man_gen list) in
  let fd =
    try Unix.openfile path [ O_RDONLY ] 0
    with Unix.Unix_error (ENOENT, _, _) -> err (Missing path)
  in
  match
    let size = (Unix.fstat fd).st_size in
    if size < seg_prefix_bytes then err (Truncated path);
    let prefix = really_read fd path seg_prefix_bytes in
    check_prologue ~file:path segment_magic prefix;
    let ((gen, list', n), (rec_bytes', brec, nblocks)), _ = decode ~file:path seg_header prefix in
    if gen <> man.man_gen || list' <> list then err (Corrupt (path ^ ": wrong generation or list"));
    if n <> man.man_n || brec <> man.man_brec then err (Corrupt (path ^ ": dimensions disagree with manifest"));
    if rec_bytes' <> rec_bytes then err (Corrupt (path ^ ": record width disagrees with manifest"));
    if nblocks <> (n + brec - 1) / brec then err (Corrupt (path ^ ": bad block count"));
    let header_bytes = seg_prefix_bytes + (4 * nblocks) + 4 in
    if size < header_bytes then err (Truncated path);
    let header = prefix ^ really_read fd path (header_bytes - seg_prefix_bytes) in
    let _, block_crcs = unseal ~file:path ~what:"header" segment_magic seg_header header in
    if Crc32.sub header ~pos:0 ~len:(header_bytes - 4) <> man.man_seg_crcs.(list) then
      err (Corrupt (path ^ ": header does not match the published manifest"));
    if size <> header_bytes + (n * rec_bytes) then err (Truncated path);
    { seg_fd = fd; seg_file = path; seg_header_bytes = header_bytes; seg_block_crcs = block_crcs }
  with
  | seg -> seg
  | exception e ->
    Unix.close fd;
    raise e

(* ---- handle ------------------------------------------------------------ *)

type cached = { entries : Proto.Enc_item.entry array; mutable last_use : int }

type t = {
  dir : string;
  gen : int;
  n : int;
  m : int;
  s : int;
  brec : int;
  record : Proto.Enc_item.entry C.t;
  segs : seg array;
  cache : (int * int, cached) Hashtbl.t;  (* (list, block) -> decoded records *)
  cache_cap : int;
  mutable tick : int;
  lock : Mutex.t;
  mutable closed : bool;
}

let open_index ?(cache_blocks = 64) ~dir pub =
  if cache_blocks <= 0 then invalid_arg "Store.open_index: cache_blocks <= 0";
  if not (Sys.file_exists dir && Sys.is_directory dir) then err (Missing dir);
  let man = read_manifest ~dir in
  check_key ~file:(Filename.concat dir manifest_name) pub ~key_bits:man.man_key_bits
    ~width:man.man_width ~fp:man.man_fp;
  let record = record pub ~s:man.man_s in
  (* every segment opened below is closed again if a later one fails *)
  let opened = ref [] in
  match
    Array.init man.man_m (fun list ->
        let seg = open_segment ~dir man ~list ~rec_bytes:record.C.min in
        opened := seg :: !opened;
        seg)
  with
  | segs ->
    {
      dir;
      gen = man.man_gen;
      n = man.man_n;
      m = man.man_m;
      s = man.man_s;
      brec = man.man_brec;
      record;
      segs;
      cache = Hashtbl.create 64;
      cache_cap = cache_blocks;
      tick = 0;
      lock = Mutex.create ();
      closed = false;
    }
  | exception e ->
    List.iter (fun seg -> Unix.close seg.seg_fd) !opened;
    raise e

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Array.iter (fun s -> Unix.close s.seg_fd) t.segs;
        Hashtbl.reset t.cache
      end)

let check_open t what = if t.closed then invalid_arg ("Store." ^ what ^ ": store is closed")
let n_rows t = t.n
let n_attrs t = t.m
let cells t = t.s
let generation t = t.gen
let block_records t = t.brec

let disk_bytes t =
  file_size (Filename.concat t.dir manifest_name)
  + Array.fold_left (fun acc s -> acc + file_size s.seg_file) 0 t.segs

(* Evict the least-recently-used block when over capacity (linear scan:
   the cache is small and eviction rare at our scale). *)
let evict_if_needed t =
  if Hashtbl.length t.cache > t.cache_cap then begin
    let victim = ref None in
    Hashtbl.iter
      (fun key c ->
        match !victim with
        | Some (_, age) when age <= c.last_use -> ()
        | _ -> victim := Some (key, c.last_use))
      t.cache;
    match !victim with Some (key, _) -> Hashtbl.remove t.cache key | None -> ()
  end

(* Load one block through the checksum table; caller holds [t.lock]. *)
let load_block t list block =
  let first = block * t.brec in
  let count = min t.brec (t.n - first) in
  let rec_bytes = t.record.C.min in
  let seg = t.segs.(list) in
  let off = seg.seg_header_bytes + (first * rec_bytes) in
  ignore (Unix.lseek seg.seg_fd off SEEK_SET);
  let data = really_read seg.seg_fd seg.seg_file (count * rec_bytes) in
  if Crc32.string data <> seg.seg_block_crcs.(block) then
    err (Corrupt (Printf.sprintf "%s: block %d checksum mismatch" seg.seg_file block));
  Obs.add Obs.Metrics.Store_read_bytes (count * rec_bytes);
  decode ~file:seg.seg_file (C.array_n count t.record) data

let block_entries t list block =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.cache (list, block) with
  | Some c ->
    c.last_use <- t.tick;
    Obs.bump Obs.Metrics.Cache_hit;
    c.entries
  | None ->
    Obs.bump Obs.Metrics.Cache_miss;
    let entries = load_block t list block in
    Hashtbl.replace t.cache (list, block) { entries; last_use = t.tick };
    evict_if_needed t;
    entries

let entry t ~list ~depth =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      check_open t "entry";
      if list < 0 || list >= t.m then invalid_arg "Store.entry: list out of range";
      if depth < 0 || depth >= t.n then invalid_arg "Store.entry: depth out of range";
      (block_entries t list (depth / t.brec)).(depth mod t.brec))

let relation t =
  Sectopk.Scheme.of_fetch ~n:(n_rows t) ~m:t.m (fun list depth ->
      let e = entry t ~list ~depth in
      (e.Proto.Enc_item.ehl, e.Proto.Enc_item.score))

let verify t =
  let nblocks = (t.n + t.brec - 1) / t.brec in
  for list = 0 to t.m - 1 do
    for block = 0 to nblocks - 1 do
      Mutex.lock t.lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.lock)
        (fun () ->
          check_open t "verify";
          ignore (block_entries t list block))
    done
  done

(* ---- build ------------------------------------------------------------- *)

let build ?(block_records = 16) ~dir pub er =
  if block_records <= 0 then invalid_arg "Store.build: block_records <= 0";
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let n = Sectopk.Scheme.n_rows er and m = Sectopk.Scheme.n_attrs er in
  let s =
    Ehl.Ehl_plus.length (Sectopk.Scheme.entry er ~list:0 ~depth:0).Proto.Enc_item.ehl
  in
  let record = record pub ~s in
  let rec_bytes = record.C.min in
  (* supersede whatever generation is currently published (leniently: a
     damaged manifest means nothing is published, start at 1) *)
  let gen = 1 + (match read_manifest ~dir with m -> m.man_gen | exception _ -> 0) in
  let seg_crcs =
    Array.init m (fun list ->
        let body = Buffer.create (n * rec_bytes) in
        for depth = 0 to n - 1 do
          record.C.put body (Sectopk.Scheme.entry er ~list ~depth)
        done;
        let file, hcrc =
          encode_segment ~gen ~list ~n ~rec_bytes ~brec:block_records (Buffer.contents body)
        in
        write_file_atomic ~dir (segment_name ~gen list) file;
        hcrc)
  in
  let man_bytes =
    C.encode manifest
      {
        man_gen = gen;
        man_key_bits = pub.Paillier.key_bits;
        man_width = Paillier.ciphertext_bytes pub;
        man_n = n;
        man_m = m;
        man_s = s;
        man_brec = block_records;
        man_fp = fingerprint pub;
        man_seg_crcs = seg_crcs;
      }
  in
  (* POSIX does not order rename durability, so persist the segment
     renames before the manifest rename can possibly land — the manifest
     must never point at files a crash could un-publish *)
  fsync_dir dir;
  (* the commit point: everything above is durable before this rename *)
  write_file_atomic ~dir manifest_name (sealed man_bytes);
  fsync_dir dir

(* ---- sharded indexes --------------------------------------------------- *)

(* A sharded index is a directory of ordinary store directories
   (shard_0, shard_1, ...) plus a top-level SHARDMAP that binds them
   together: shard count, per-shard row counts, and the CRC of each
   shard's published MANIFEST bytes.  The map carries the same key
   fingerprint as the manifests, so a shard replaced by one built under
   a different Paillier modulus fails [check_key] before any mixed
   answer could be computed; a shard whose manifest no longer matches
   the CRC recorded at publish time (a partial re-deploy) is a typed
   [Corrupt], never a silently inconsistent serving set.  The SHARDMAP
   rename is the commit point, after every shard's own commit. *)
module Sharded = struct
  let map_magic = "STKH"
  let map_name = "SHARDMAP"
  let shard_dir_name i = Printf.sprintf "shard_%d" i

  type map_entry = { sm_rows : int; sm_gen : int; sm_man_crc : int }

  type map = {
    sm_key_bits : int;
    sm_width : int;
    sm_fp : string;
    sm_shards : map_entry array;
  }

  (* shard count | key_bits | width, the fingerprint, then one rows |
     gen | manifest CRC per shard *)
  let map =
    let shard =
      C.(
        conv
          (fun (sm_rows, sm_gen, sm_man_crc) -> { sm_rows; sm_gen; sm_man_crc })
          (fun e -> (e.sm_rows, e.sm_gen, e.sm_man_crc))
          (triple u32 u32 u32))
    in
    C.(
      versioned map_magic (pair (triple u32 u32 u32) (pair fingerprint_field (rest shard)))
      |> check
           (fun ((count, _, _), (_, shards)) -> count = Array.length shards)
           "shard table disagrees with shard count"
      |> conv
           (fun ((_, sm_key_bits, sm_width), (sm_fp, sm_shards)) ->
             { sm_key_bits; sm_width; sm_fp; sm_shards })
           (fun m ->
             ((Array.length m.sm_shards, m.sm_key_bits, m.sm_width), (m.sm_fp, m.sm_shards)))
      |> check
           (fun m -> Array.length m.sm_shards > 0 && Array.length m.sm_shards <= 4096)
           "bad shard count"
      |> check (fun m -> Array.for_all (fun e -> e.sm_rows > 0) m.sm_shards) "empty shard")

  let read_map ~dir =
    let path = Filename.concat dir map_name in
    unseal ~file:path ~what:"shard map" map_magic map (read_whole_file path)

  let is_sharded ~dir = Sys.file_exists (Filename.concat dir map_name)
  let shard_count ~dir = Array.length (read_map ~dir).sm_shards

  let build ?block_records ~dir pub ers =
    if Array.length ers = 0 then invalid_arg "Store.Sharded.build: no shards";
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    (* each shard publishes through the ordinary single-store discipline
       (its own MANIFEST rename is its commit point) ... *)
    let sm_shards =
      Array.mapi
        (fun i er ->
          let sdir = Filename.concat dir (shard_dir_name i) in
          build ?block_records ~dir:sdir pub er;
          let man_path = Filename.concat sdir manifest_name in
          let man_data = read_whole_file man_path in
          let man = parse_manifest ~file:man_path man_data in
          { sm_rows = man.man_n; sm_gen = man.man_gen; sm_man_crc = Crc32.string man_data })
        ers
    in
    let map_bytes =
      C.encode map
        {
          sm_key_bits = pub.Paillier.key_bits;
          sm_width = Paillier.ciphertext_bytes pub;
          sm_fp = fingerprint pub;
          sm_shards;
        }
    in
    (* ... and the SHARDMAP rename publishes the set as a whole, only
       after every shard's manifest is durable *)
    fsync_dir dir;
    write_file_atomic ~dir map_name (sealed map_bytes);
    fsync_dir dir

  let open_index ?cache_blocks ~dir pub =
    if not (Sys.file_exists dir && Sys.is_directory dir) then err (Missing dir);
    let map_path = Filename.concat dir map_name in
    let map = read_map ~dir in
    check_key ~file:map_path pub ~key_bits:map.sm_key_bits ~width:map.sm_width ~fp:map.sm_fp;
    let opened = ref [] in
    try
      let stores =
        Array.mapi
          (fun i e ->
            let sdir = Filename.concat dir (shard_dir_name i) in
            let man_path = Filename.concat sdir manifest_name in
            (* bind this shard to the published set before trusting it:
               the manifest bytes must be the ones the map was built
               over (its own CRC already proves internal integrity) *)
            let man_data = read_whole_file man_path in
            if Crc32.string man_data <> e.sm_man_crc then
              err (Corrupt (man_path ^ ": shard manifest does not match the published shard map"));
            let st = open_index ?cache_blocks ~dir:sdir pub in
            opened := st :: !opened;
            if st.n <> e.sm_rows || st.gen <> e.sm_gen then
              err (Corrupt (man_path ^ ": shard shape disagrees with the shard map"));
            st)
          map.sm_shards
      in
      stores
    with e ->
      List.iter (fun st -> try close st with _ -> ()) !opened;
      raise e
end
