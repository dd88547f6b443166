open Crypto
open Dataset
open Topk

type secret_key = { prp_key : string; ehl_keys : Prf.key list; s : int }

(* The server-side ER is exposed through a fetch function so that callers
   never see the backing representation: [encrypt] wraps in-memory
   arrays, while lib/store provides a lazy block-cached fetch over the
   on-disk segment files.  Both must serve byte-identical entries. *)
type encrypted_relation = {
  fetch : int -> int -> Ehl.Ehl_plus.t * Paillier.ciphertext;  (* list, depth *)
  n : int;
  m : int;
}

(* Encrypt the rows [rows] of [rel] as one self-contained encrypted
   relation under an existing key. EHL encodings hash the object's
   *global* id (its row index in [rel]), so items from different shards
   of the same relation stay distinct under SecDedup and resolve through
   the same client dictionary; the list permutation uses the shared
   [prp_key], so one token addresses every shard's lists alike. With
   [rows] the identity, the draws are exactly those of the historical
   unsharded [encrypt]. *)
let encrypt_rows ~domains rng pub rel key rows =
  let sub =
    if Array.length rows = Relation.n_rows rel then rel
    else Relation.create ~name:(Relation.name rel) (Array.map (Relation.row rel) rows)
  in
  let sl = Sorted_lists.of_relation sub in
  let m = Sorted_lists.n_lists sl and n = Sorted_lists.depth sl in
  (* Every noise draw is made here, in index order, and only the
     exponentiations fan out: per object its EHL cells' encryptions, then
     list by list per item its cells' rerandomizations and its score's
     encryption. *)
  let s = List.length key.ehl_keys in
  let draw k _ = Array.init k (fun _ -> Paillier.draw_noise rng pub) in
  let noise d = Paillier.noise_of pub d in
  (* EHL encodings are per-object; share them across lists *)
  let encodings =
    Core.Pool.map_drawn ~domains ~jobs:n ~draw:(draw s) (fun oid draws ->
        let id = Relation.object_id rel rows.(oid) in
        Ehl.Ehl_plus.of_cells
          (Array.of_list
             (List.mapi
                (fun j key ->
                  Paillier.encrypt_with pub ~noise:(noise draws.(j))
                    (Prf.to_nat_mod ~key id ~m:pub.Paillier.n))
                key.ehl_keys)))
  in
  let plain_lists =
    Array.init m (fun attr ->
        let items = Sorted_lists.list sl attr in
        Core.Pool.map_drawn ~domains ~jobs:(Array.length items) ~draw:(draw (s + 1))
          (fun d draws ->
            let it = items.(d) in
            ( Ehl.Ehl_plus.of_cells
                (Array.mapi
                   (fun j c -> Paillier.rerandomize_with pub ~noise:(noise draws.(j)) c)
                   (Ehl.Ehl_plus.cells encodings.(it.Sorted_lists.oid))),
              Paillier.encrypt_with pub ~noise:(noise draws.(s))
                (Bignum.Nat.of_int it.Sorted_lists.score) )))
  in
  let prp = Prp.create ~key:key.prp_key ~domain:m in
  let lists = Array.init m (fun i -> plain_lists.(Prp.invert prp i)) in
  let fetch list depth = lists.(list).(depth) in
  { fetch; n; m }

let gen_key rng s =
  let ehl_keys = Prf.gen_keys rng s in
  let prp_key = Rng.bytes rng 32 in
  { prp_key; ehl_keys; s }

let encrypt ?(s = 5) ?(domains = 1) rng pub rel =
  let key = gen_key rng s in
  let rows = Array.init (Relation.n_rows rel) Fun.id in
  (encrypt_rows ~domains rng pub rel key rows, key)

(* Horizontal partition of the row space: permute rows with an
   owner-keyed PRP and deal permuted positions round-robin. Shard sizes
   differ by at most one (only the sizes are revealed by placement), and
   which shard holds which object is pseudo-random — correlating shard
   membership with attribute values would distinguish the PRP. *)
let shard_rows ~key ~shards ~rows =
  if shards <= 0 then invalid_arg "Scheme.shard_rows: shards <= 0";
  if rows < shards then invalid_arg "Scheme.shard_rows: fewer rows than shards";
  let prp = Prp.create ~key ~domain:rows in
  let parts = Array.make shards [] in
  for pos = rows - 1 downto 0 do
    parts.(pos mod shards) <- Prp.invert prp pos :: parts.(pos mod shards)
  done;
  Array.map Array.of_list parts

let encrypt_sharded ?(s = 5) ?(domains = 1) ~shards rng pub rel =
  if shards <= 0 then invalid_arg "Scheme.encrypt_sharded: shards <= 0";
  let key = gen_key rng s in
  if shards = 1 then begin
    (* no placement key is drawn: the single shard is byte-identical to
       the unsharded [encrypt] of the same rng position *)
    let rows = Array.init (Relation.n_rows rel) Fun.id in
    ([| encrypt_rows ~domains rng pub rel key rows |], key)
  end
  else begin
    let place_key = Rng.bytes rng 32 in
    let parts = shard_rows ~key:place_key ~shards ~rows:(Relation.n_rows rel) in
    let ers = Array.map (encrypt_rows ~domains rng pub rel key) parts in
    (ers, key)
  end

let n_rows er = er.n
let n_attrs er = er.m

let entry er ~list ~depth =
  if list < 0 || list >= er.m then invalid_arg "Scheme.entry: list out of range";
  if depth < 0 || depth >= er.n then invalid_arg "Scheme.entry: depth out of range";
  let ehl, score = er.fetch list depth in
  { Proto.Enc_item.ehl; score }

let size_bytes pub er =
  let acc = ref 0 in
  for list = 0 to er.m - 1 do
    for depth = 0 to er.n - 1 do
      let ehl, _ = er.fetch list depth in
      acc := !acc + Ehl.Ehl_plus.size_bytes pub ehl + Paillier.ciphertext_bytes pub
    done
  done;
  !acc

let of_fetch ~n ~m fetch =
  if n <= 0 || m <= 0 then invalid_arg "Scheme.of_fetch: bad dimensions";
  { fetch; n; m }

type token = { attrs : (int * int) list; k : int }

let token key ~m_total scoring ~k =
  if k <= 0 then invalid_arg "Scheme.token: k <= 0";
  let prp = Prp.create ~key:key.prp_key ~domain:m_total in
  { attrs = List.map (fun (a, w) -> (Prp.apply prp a, w)) (Scoring.weights scoring); k }

(* The id dictionary costs one PRF per id, which on a 4096-row index is
   more than S1 spends executing a shallow query, so a process keeps the
   last dictionary it built, for one (kappa_1, n, ids), and rebuilds only
   when one of them changes. A dictionary is built before it is published
   and never changed after, so client domains share it through
   [Hashtbl.find_opt] alone. It matches by content: callers provision a
   fresh [pub] and rebuild [ids] per answer. *)
type dictionary = {
  k1 : Prf.key;
  modulus : Bignum.Nat.t;
  ids : string list;
  table : (Bignum.Nat.t, string) Hashtbl.t;
}

let last_dictionary : dictionary option Atomic.t = Atomic.make None

let dictionary k1 modulus ids =
  match Atomic.get last_dictionary with
  | Some d
    when String.equal d.k1 k1 && Bignum.Nat.equal d.modulus modulus
         && (d.ids == ids || List.equal String.equal d.ids ids) ->
    d.table
  | _ ->
    let table = Hashtbl.create (List.length ids) in
    List.iter (fun id -> Hashtbl.replace table (Prf.to_nat_mod ~key:k1 id ~m:modulus) id) ids;
    Atomic.set last_dictionary (Some { k1; modulus; ids; table });
    table

let make_resolver key ~pub ~ids =
  let table = dictionary (List.hd key.ehl_keys) pub.Paillier.n ids in
  fun cell_value -> Hashtbl.find_opt table cell_value
