(* The four workloads: the relation each one's program receives (as a CSV
   file), the token mix its clients send, and the deployment shape. Data
   and tokens are drawn from the --seed argument; key provisioning uses a
   fixed seed of its own, so the deployment's keys are the same for every
   run.

   Both data layouts pin plaintext NRA's halting depth for every seed, so
   the spread between runs on different seeds measures the system rather
   than the draw (halting depth drives query cost quadratically):

   - aligned: every list has the same order (consecutive ranks are at
     least gap/2 apart in every attribute), so a top-k query halts at
     depth k whatever the attribute subset and weights;
   - staggered: list j is list 0 rotated by j * rows / attrs positions,
     so lists disagree on which objects are best and halting needs most
     of the rows.

   Values are value(o, j) = (rows - r_j(o)) * gap + u(o, j), with the
   jitter u (uniform in [0, gap/2]) and the rank of all but the best
   eight objects drawn through {!Dataset.Synthetic}. The best eight sit
   in rows 0-7 for every seed: shard placement is a fixed function of
   the row (given the fixed key seed), so a sharded index splits the
   top-k the same way every time, which fixes the global depth barrier's
   halting depth too. *)

open Dataset

type name = Shallow | Deep | Wan | Ingest

let all = [ Shallow; Deep; Wan; Ingest ]

let to_string = function
  | Shallow -> "shallow"
  | Deep -> "deep"
  | Wan -> "wan"
  | Ingest -> "ingest"

let of_string s =
  match List.find_opt (fun w -> to_string w = s) all with
  | Some w -> w
  | None -> invalid_arg ("unknown workload: " ^ s)

let key_seed = "benchmark-keys"
let key_bits = 128
let rand_bits = 96
let blind_bits = 48

type layout = Aligned | Staggered

type data = { layout : layout; rows : int; attrs : int; gap : int }

(* one query: (attribute, weight) pairs and k *)
type query = { attrs : (int * int) list; k : int }

(* a token class: (attribute count, k, weighted) *)
type cls = int * int * bool

type spec = {
  name : name;
  data : data;
  variant : string;  (** serve-s1 --variant *)
  shards : int;
  clients : int;
  link : bool;  (** S1 reaches S2 through the emulated link *)
  classes : cls list;  (** one client pass, before shuffling *)
  warmup : bool;  (** run one untimed pass before measuring *)
}

(* The emulated S1 -> S2 link: the paper's 50 Mbit/s (section 11.2.5)
   with a 2 ms round trip. *)
let link_rtt_us = 2000
let link_mbps = 50

(* 4096 x 4 at the CLI's 16 records per block is 1024 blocks against
   serve-s1's 64-block cache; a top-k query reads one block per list. *)
let aligned = { layout = Aligned; rows = 4096; attrs = 4; gap = 16 }

(* 20 x 4 is two blocks per list, so the index fits the cache. *)
let staggered = { layout = Staggered; rows = 20; attrs = 4; gap = 20 }

(* A pass from (attribute count, k, copies) triples; the first copy of a
   triple is weighted when [weighted]. Every pass has an odd length and a
   head class that sits in the middle of the cost order, with as many
   cheaper tokens as dearer ones: the median latency is then a copy of the
   head class, not the midpoint of a gap between two clusters of
   latencies, which moved it by a tenth from seed to seed. *)
let mix ~weighted triples =
  List.concat_map (fun (m, k, n) -> List.init n (fun i -> (m, k, weighted && i = 0))) triples

(* 19 tokens over 2-3 of the 4 attributes with k in {1, 3, 5}, 6 of them
   weighted; the head (3 attributes, k = 3) is 7 of them. Halting depth
   is k: 4 tokens at depth 1, 9 at depth 3, 6 at depth 5. *)
let shallow_classes =
  mix ~weighted:true [ (2, 1, 2); (3, 1, 2); (2, 3, 2); (3, 3, 7); (2, 5, 3); (3, 5, 3) ]

let spec = function
  | Shallow ->
    { name = Shallow; data = aligned; variant = "elim"; shards = 1; clients = 1; link = false;
      classes = shallow_classes; warmup = true }
  | Deep ->
    (* m = 4 costs about twice m = 3; k = 3 a tenth more than k = 2 *)
    { name = Deep; data = staggered; variant = "full"; shards = 1; clients = 1; link = false;
      classes = mix ~weighted:false [ (3, 2, 1); (3, 3, 3); (4, 3, 1) ]; warmup = false }
  | Wan ->
    { name = Wan; data = aligned; variant = "elim"; shards = 2; clients = 2; link = true;
      classes = shallow_classes; warmup = true }
  | Ingest ->
    (* the untimed query pass validates the served index; the timed
       operations are index builds *)
    { name = Ingest; data = aligned; variant = "elim"; shards = 1; clients = 1; link = false;
      classes = shallow_classes; warmup = true }

(* ---- data ---------------------------------------------------------------- *)

let relation d ~seed =
  let name = Printf.sprintf "%s-%d" (match d.layout with Aligned -> "aligned" | Staggered -> "staggered") d.rows in
  let order =
    Synthetic.generate ~seed ~name:(name ^ "-order") ~rows:d.rows ~attrs:1
      (Synthetic.Uniform { lo = 0; hi = 1 lsl 30 })
  in
  let jitter =
    Synthetic.generate ~seed ~name:(name ^ "-jitter") ~rows:d.rows ~attrs:d.attrs
      (Synthetic.Uniform { lo = 0; hi = d.gap / 2 })
  in
  (* the best [pinned] objects sit in the first rows, best first; the
     seed places the rest *)
  let pinned = min 8 d.rows in
  let by_key = Array.init (d.rows - pinned) (fun i -> i + pinned) in
  Array.stable_sort
    (fun a b -> compare (Relation.value order ~row:a ~attr:0) (Relation.value order ~row:b ~attr:0))
    by_key;
  let rank = Array.init d.rows Fun.id in
  Array.iteri (fun r o -> rank.(o) <- r + pinned) by_key;
  let shift = match d.layout with Aligned -> 0 | Staggered -> d.rows / d.attrs in
  Relation.create ~name
    (Array.init d.rows (fun o ->
         Array.init d.attrs (fun j ->
             let r = (rank.(o) + (j * shift)) mod d.rows in
             ((d.rows - r) * d.gap) + Relation.value jitter ~row:o ~attr:j)))

(* id,a0,..: the header makes the parser skip the first line; ids are
   positional in the index (o0, o1, ...) whatever the file calls them *)
let write_csv rel path =
  Out_channel.with_open_bin path (fun oc ->
      let m = Relation.n_attrs rel in
      output_string oc ("id," ^ String.concat "," (List.init m (Printf.sprintf "a%d")) ^ "\n");
      for o = 0 to Relation.n_rows rel - 1 do
        output_string oc
          (Printf.sprintf "r%d,%s\n" o
             (String.concat "," (List.init m (fun j -> string_of_int (Relation.value rel ~row:o ~attr:j)))))
      done)

(* ---- tokens -------------------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Crypto.Rng.int_below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* One client's pass: every class once, attribute subsets and weights
   drawn from the seed, in a seed-shuffled order. *)
let pass spec ~seed ~client =
  let rng =
    Crypto.Rng.create
      ~seed:(Printf.sprintf "benchmark:%s:%s:client-%d" (to_string spec.name) seed client)
  in
  let one (m, k, weighted) =
    let attrs = Array.init spec.data.attrs Fun.id in
    shuffle rng attrs;
    let chosen = List.sort compare (Array.to_list (Array.sub attrs 0 m)) in
    { attrs = List.map (fun a -> (a, if weighted then 1 + Crypto.Rng.int_below rng 3 else 1)) chosen; k }
  in
  let qs = Array.of_list (List.map one spec.classes) in
  shuffle rng qs;
  Array.to_list qs

let scoring q = Topk.Scoring.create q.attrs
