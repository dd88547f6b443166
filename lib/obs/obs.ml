(* Observability substrate: op counters, hierarchical timed spans, a
   per-protocol report, Chrome trace-event export, and a closed-form cost
   model for the paper's sub-protocols.

   Design constraints:

   - No dependency on the rest of the tree (only [unix]), so even
     [lib/bignum] can bump counters.
   - Hooks are free when disabled: [bump] is a flag test and a return.
   - A "current collector" lives in domain-local storage; entry points
     ([Query.run], [Sec_join.top_k], ...) install the context's collector,
     and [Core.Pool.run] installs a fresh collector per chunk of a
     fan-out, merging them back in chunk order.  Counters, bytes, rounds
     and the span tree are therefore byte-identical for every [--domains]
     width; only wall times differ, and the canonical rendering
     ([Report.render ~times:false]) excludes them. *)

module Metrics = struct
  type op =
    | Paillier_enc
    | Paillier_dec
    | Paillier_mul
    | Paillier_rerand
    | Dj_enc
    | Dj_dec
    | Dj_mul
    | Dj_rerand
    | Modexp
    | Modexp_fixed_base
    | Prf_eval
    | Bytes_sent
    | Msgs
    | Rounds
    | Store_read_bytes
    | Cache_hit
    | Cache_miss

  let n_ops = 17

  let index = function
    | Paillier_enc -> 0
    | Paillier_dec -> 1
    | Paillier_mul -> 2
    | Paillier_rerand -> 3
    | Dj_enc -> 4
    | Dj_dec -> 5
    | Dj_mul -> 6
    | Dj_rerand -> 7
    | Modexp -> 8
    | Prf_eval -> 9
    | Bytes_sent -> 10
    | Msgs -> 11
    | Rounds -> 12
    | Store_read_bytes -> 13
    | Cache_hit -> 14
    | Cache_miss -> 15
    | Modexp_fixed_base -> 16

  let all =
    [ Paillier_enc; Paillier_dec; Paillier_mul; Paillier_rerand;
      Dj_enc; Dj_dec; Dj_mul; Dj_rerand;
      Modexp; Modexp_fixed_base; Prf_eval; Bytes_sent; Msgs; Rounds;
      Store_read_bytes; Cache_hit; Cache_miss ]

  let name = function
    | Paillier_enc -> "paillier_encrypt"
    | Paillier_dec -> "paillier_decrypt"
    | Paillier_mul -> "paillier_scalar_mul"
    | Paillier_rerand -> "paillier_rerand"
    | Dj_enc -> "dj_encrypt"
    | Dj_dec -> "dj_decrypt"
    | Dj_mul -> "dj_scalar_mul"
    | Dj_rerand -> "dj_rerand"
    | Modexp -> "modexp"
    | Modexp_fixed_base -> "modexp_fixed_base"
    | Prf_eval -> "prf"
    | Bytes_sent -> "bytes"
    | Msgs -> "messages"
    | Rounds -> "rounds"
    | Store_read_bytes -> "store_read_bytes"
    | Cache_hit -> "cache_hit"
    | Cache_miss -> "cache_miss"

  type t = int array

  let create () : t = Array.make n_ops 0
  let get (t : t) op = t.(index op)
  let add (t : t) op n = t.(index op) <- t.(index op) + n
  let snapshot (t : t) = Array.copy t
  let sub (a : t) (b : t) : t = Array.init n_ops (fun i -> a.(i) - b.(i))
  let merge_into (src : t) ~(into : t) =
    for i = 0 to n_ops - 1 do
      into.(i) <- into.(i) + src.(i)
    done
  let is_zero (t : t) = Array.for_all (fun c -> c = 0) t
  let to_alist (t : t) = List.map (fun op -> (op, get t op)) all
end

module Span = struct
  type t = {
    sname : string;
    mutable t0 : float;
    mutable t1 : float;
    (* inclusive op-count delta over the span, filled at exit *)
    mutable ops : Metrics.t;
    mutable rev_children : t list;
  }

  let name s = s.sname
  let seconds s = s.t1 -. s.t0
  let ops s = s.ops
  let children s = List.rev s.rev_children
end

module Collector = struct
  type t = {
    metrics : Metrics.t;
    mutable rev_roots : Span.t list;
    (* open spans, innermost first, with the counter snapshot at entry *)
    mutable stack : (Span.t * Metrics.t) list;
  }

  let create () = { metrics = Metrics.create (); rev_roots = []; stack = [] }
  let metrics t = t.metrics
  let roots t = List.rev t.rev_roots

  let enter t name =
    let sp =
      { Span.sname = name; t0 = Unix.gettimeofday (); t1 = 0.;
        ops = [||]; rev_children = [] }
    in
    (match t.stack with
    | (parent, _) :: _ -> parent.Span.rev_children <- sp :: parent.Span.rev_children
    | [] -> t.rev_roots <- sp :: t.rev_roots);
    t.stack <- (sp, Metrics.snapshot t.metrics) :: t.stack

  let exit t =
    match t.stack with
    | [] -> invalid_arg "Obs.Collector.exit: no open span"
    | (sp, snap) :: rest ->
      sp.Span.t1 <- Unix.gettimeofday ();
      sp.Span.ops <- Metrics.sub t.metrics snap;
      t.stack <- rest

  (* Merge a finished collector into [into]: counters are summed and
     [src]'s root spans become children of [into]'s innermost open span
     (or roots).  Called in chunk order by [Core.Pool.run], so the
     resulting tree is independent of the domain-pool width. *)
  let merge_into src ~into =
    if src.stack <> [] then invalid_arg "Obs.Collector.merge_into: open span in source";
    Metrics.merge_into src.metrics ~into:into.metrics;
    let adopt sp =
      match into.stack with
      | (parent, _) :: _ ->
        parent.Span.rev_children <- sp :: parent.Span.rev_children
      | [] -> into.rev_roots <- sp :: into.rev_roots
    in
    List.iter adopt (roots src)

  let is_empty t =
    Metrics.is_zero t.metrics && t.rev_roots = [] && t.stack = []
end

(* ---- log-scale latency/size histograms --------------------------------- *)

(* Fixed-bucket base-2 histogram with 8 sub-buckets per octave (a
   log-linear scheme): values 0..7 get exact buckets, every larger octave
   [2^e, 2^(e+1)) is split into 8 equal sub-buckets, so a bucket's width
   never exceeds 1/8 of its lower bound and any quantile read off the
   bucket boundaries carries a relative error of at most 12.5% (the
   property test pins this against a sorted-sample oracle).  The layout
   is a plain int array: recording is one index computation and one
   increment (no allocation), merging is element-wise addition
   (associative and commutative), and the bucket scheme is a constant of
   the format — histograms recorded on different domains or machines
   merge exactly. *)
module Hist = struct
  (* 8 exact buckets + 8 per octave for exponents 3..62 *)
  let n_buckets = 8 + (8 * 60)

  type t = {
    counts : int array;
    mutable count : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let create () =
    { counts = Array.make n_buckets 0; count = 0; sum = 0; vmin = max_int; vmax = 0 }

  let clear t =
    Array.fill t.counts 0 n_buckets 0;
    t.count <- 0;
    t.sum <- 0;
    t.vmin <- max_int;
    t.vmax <- 0

  (* position of the highest set bit; [v] >= 8 here *)
  let rec msb_from v acc = if v <= 1 then acc else msb_from (v lsr 1) (acc + 1)

  let bucket_index v =
    if v < 8 then v
    else
      let e = msb_from v 0 in
      (8 * (e - 2)) + ((v lsr (e - 3)) land 7)

  (* largest value the bucket covers (its inclusive upper bound) *)
  let bucket_upper idx =
    if idx < 8 then idx
    else
      let e = (idx lsr 3) + 2 and s = idx land 7 in
      ((8 + s + 1) lsl (e - 3)) - 1

  let record t v =
    let v = if v < 0 then 0 else v in
    t.counts.(bucket_index v) <- t.counts.(bucket_index v) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  (* seconds are recorded as integer microseconds: integer buckets keep
     merges exact and snapshots byte-identical across domains *)
  let record_seconds t s = record t (int_of_float ((s *. 1e6) +. 0.5))

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.vmin
  let max_value t = if t.count = 0 then 0 else t.vmax
  let is_empty t = t.count = 0

  let merge_into src ~into =
    for i = 0 to n_buckets - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax

  let snapshot t =
    {
      counts = Array.copy t.counts;
      count = t.count;
      sum = t.sum;
      vmin = t.vmin;
      vmax = t.vmax;
    }

  (* (inclusive upper bound, count) for every non-empty bucket, ascending *)
  let buckets t =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (bucket_upper i, t.counts.(i)) :: !acc
    done;
    !acc

  (* Upper bound of the bucket holding the ceil(q*count)-th smallest
     value, clamped to the recorded max: always >= the true quantile and
     at most 12.5% + 1 above it. *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank = max 1 (min t.count (int_of_float (ceil (q *. float_of_int t.count)))) in
      let rec walk i seen =
        if i >= n_buckets then t.vmax
        else
          let seen = seen + t.counts.(i) in
          if seen >= rank then min (bucket_upper i) t.vmax else walk (i + 1) seen
      in
      max (walk 0 0) (min_value t)
    end

  let quantile_seconds t q = float_of_int (quantile t q) /. 1e6

  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
end

(* ---- global switch and current collector ------------------------------- *)

let enabled =
  ref
    (match Sys.getenv_opt "OBS_ENABLED" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_enabled b = enabled := b
let is_enabled () = !enabled

let current_key : Collector.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let with_collector c f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* Install [c] only when no collector is already current: protocol entry
   points use this so an outer harness (bench) can capture everything. *)
let with_default c f =
  match current () with Some _ -> f () | None -> with_collector c f

let add op n =
  if !enabled then
    match current () with Some c -> Metrics.add c.Collector.metrics op n | None -> ()

let bump op = add op 1

let span name f =
  if not !enabled then f ()
  else
    match current () with
    | None -> f ()
    | Some c ->
      Collector.enter c name;
      Fun.protect ~finally:(fun () -> Collector.exit c) f

(* ---- timing ------------------------------------------------------------ *)

module Timer = struct
  let now () = Unix.gettimeofday ()

  let time f =
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)

  (* mean seconds per call over [n] runs *)
  let per_call ~n f =
    let t0 = now () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float_of_int n
end

(* ---- pretty per-protocol report ---------------------------------------- *)

module Report = struct
  type row = {
    rname : string;
    mutable calls : int;
    mutable wall : float;
    rops : Metrics.t;
  }

  (* Aggregate spans by name, ordered by first pre-order appearance.
     Only a span's *exclusive* contribution to each named row would be
     ambiguous once protocols nest, so rows carry the inclusive delta of
     every span with that name; nested same-name spans do not occur in
     this codebase's hierarchy. *)
  let rows c =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    let rec walk sp =
      let r =
        match Hashtbl.find_opt tbl sp.Span.sname with
        | Some r -> r
        | None ->
          let r =
            { rname = sp.Span.sname; calls = 0; wall = 0.; rops = Metrics.create () }
          in
          Hashtbl.add tbl sp.Span.sname r;
          order := r :: !order;
          r
      in
      r.calls <- r.calls + 1;
      r.wall <- r.wall +. Span.seconds sp;
      if sp.Span.ops <> [||] then Metrics.merge_into sp.Span.ops ~into:r.rops;
      List.iter walk (Span.children sp)
    in
    List.iter walk (Collector.roots c);
    List.rev !order

  let render ?(times = true) c =
    let b = Buffer.create 1024 in
    let open Metrics in
    let cols =
      [ ("calls", fun r -> string_of_int r.calls);
        ("P.enc", fun r -> string_of_int (get r.rops Paillier_enc));
        ("P.dec", fun r -> string_of_int (get r.rops Paillier_dec));
        ("P.mul", fun r -> string_of_int (get r.rops Paillier_mul));
        ("P.rr", fun r -> string_of_int (get r.rops Paillier_rerand));
        ("bytes", fun r -> string_of_int (get r.rops Bytes_sent));
        ("rounds", fun r -> string_of_int (get r.rops Rounds)) ]
      @ (if times then [ ("wall(s)", fun r -> Printf.sprintf "%.3f" r.wall) ] else [])
    in
    let rows = rows c in
    let name_w =
      List.fold_left (fun w r -> max w (String.length r.rname)) (String.length "span") rows
    in
    let widths =
      List.map
        (fun (h, f) ->
          List.fold_left (fun w r -> max w (String.length (f r))) (String.length h) rows)
        cols
    in
    Buffer.add_string b (Printf.sprintf "%-*s" name_w "span");
    List.iter2
      (fun (h, _) w -> Buffer.add_string b (Printf.sprintf "  %*s" w h))
      cols widths;
    Buffer.add_char b '\n';
    List.iter
      (fun r ->
        Buffer.add_string b (Printf.sprintf "%-*s" name_w r.rname);
        List.iter2
          (fun (_, f) w -> Buffer.add_string b (Printf.sprintf "  %*s" w (f r)))
          cols widths;
        Buffer.add_char b '\n')
      rows;
    let m = Collector.metrics c in
    Buffer.add_string b "totals:";
    List.iter
      (fun op ->
        let v = get m op in
        if v <> 0 then Buffer.add_string b (Printf.sprintf " %s=%d" (name op) v))
      all;
    Buffer.add_char b '\n';
    Buffer.contents b

  let print ?times c = print_string (render ?times c)
end

(* ---- Chrome trace-event export ----------------------------------------- *)

module Chrome = struct
  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Complete ("X") events, one per span, timestamps in microseconds
     relative to the earliest root.  Spans merged from parallel tasks may
     overlap in time on the single track; Perfetto renders them stacked. *)
  let to_string c =
    let roots = Collector.roots c in
    let base =
      List.fold_left (fun m sp -> min m sp.Span.t0) infinity roots
    in
    let base = if base = infinity then 0. else base in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let rec emit sp =
      if !first then first := false else Buffer.add_char b ',';
      let us t = (t -. base) *. 1e6 in
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"tid\":1"
           (escape sp.Span.sname) (us sp.Span.t0)
           (us sp.Span.t1 -. us sp.Span.t0));
      if sp.Span.ops <> [||] && not (Metrics.is_zero sp.Span.ops) then begin
        Buffer.add_string b ",\"args\":{";
        let firsta = ref true in
        List.iter
          (fun (op, v) ->
            if v <> 0 then begin
              if !firsta then firsta := false else Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "\"%s\":%d" (Metrics.name op) v)
            end)
          (Metrics.to_alist sp.Span.ops);
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}';
      List.iter emit (Span.children sp)
    in
    List.iter emit roots;
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents b

  let write c ~file =
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string c))
end

(* ---- named metric registry --------------------------------------------- *)

(* A process-wide (or per-server) registry of named counters, gauges and
   histograms, designed to be scraped while worker domains are mutating
   it: every mutation and the snapshot hold the registry mutex, so a
   scrape never observes a torn histogram (count drifted from buckets).
   The critical sections are a handful of integer writes — contention is
   negligible next to a query's crypto work.  Snapshots are plain data
   ([(string * metric) list], sorted by name) so the wire codec and the
   JSON/Prometheus emitters need no access to live registries. *)
module Registry = struct
  type histdata = {
    hcount : int;
    hsum : int;
    hmin : int;  (* 0 when empty *)
    hmax : int;
    (* (inclusive upper bound, count) per non-empty bucket, ascending *)
    hbuckets : (int * int) list;
  }

  type metric = Counter of int | Gauge of float | Histogram of histdata
  type snapshot = (string * metric) list

  type cell = C of int ref | G of float ref | H of Hist.t

  type t = { lock : Mutex.t; cells : (string, cell) Hashtbl.t }

  let create () = { lock = Mutex.create (); cells = Hashtbl.create 32 }

  let locked t f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

  type counter = { creg : t; c : int ref }
  type gauge = { greg : t; g : float ref }
  type histogram = { hreg : t; h : Hist.t }

  let cell_kind = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

  let find t name ~kind make =
    locked t (fun () ->
        match Hashtbl.find_opt t.cells name with
        | Some cell -> cell
        | None ->
          let cell = make () in
          Hashtbl.add t.cells name cell;
          cell)
    |> fun cell ->
    match cell with
    | c when cell_kind c = kind -> c
    | c ->
      invalid_arg
        (Printf.sprintf "Obs.Registry: %S already registered as a %s" name
           (cell_kind c))

  let counter t name =
    match find t name ~kind:"counter" (fun () -> C (ref 0)) with
    | C c -> { creg = t; c }
    | _ -> assert false

  let gauge t name =
    match find t name ~kind:"gauge" (fun () -> G (ref 0.)) with
    | G g -> { greg = t; g }
    | _ -> assert false

  let histogram t name =
    match find t name ~kind:"histogram" (fun () -> H (Hist.create ())) with
    | H h -> { hreg = t; h }
    | _ -> assert false

  let add c n = locked c.creg (fun () -> c.c := !(c.c) + n)
  let inc c = add c 1
  let counter_value c = locked c.creg (fun () -> !(c.c))
  let set g v = locked g.greg (fun () -> g.g := v)
  let observe h v = locked h.hreg (fun () -> Hist.record h.h v)

  let histdata_of_hist h =
    {
      hcount = Hist.count h;
      hsum = Hist.sum h;
      hmin = Hist.min_value h;
      hmax = Hist.max_value h;
      hbuckets = Hist.buckets h;
    }

  let snapshot t : snapshot =
    locked t (fun () ->
        Hashtbl.fold
          (fun name cell acc ->
            let m =
              match cell with
              | C c -> Counter !c
              | G g -> Gauge !g
              | H h -> Histogram (histdata_of_hist h)
            in
            (name, m) :: acc)
          t.cells [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  (* Op counters folded into snapshot form, for scrape paths that also
     expose a [Metrics.t] (the S2 daemon's per-connection collectors). *)
  let metrics_counters ?(prefix = "op_") (m : Metrics.t) : snapshot =
    List.map (fun (op, v) -> (prefix ^ Metrics.name op, Counter v)) (Metrics.to_alist m)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let op_counters (snap : snapshot) =
    List.filter_map
      (fun (name, m) ->
        match m with
        | Counter v when String.starts_with ~prefix:"op_" name ->
          Some (String.sub name 3 (String.length name - 3), v)
        | _ -> None)
      snap

  let union (a : snapshot) (b : snapshot) : snapshot =
    List.sort (fun (x, _) (y, _) -> String.compare x y) (a @ b)

  (* Same estimator as [Hist.quantile], off snapshot data. *)
  let hist_quantile d q =
    if d.hcount = 0 then 0
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let rank =
        max 1 (min d.hcount (int_of_float (ceil (q *. float_of_int d.hcount))))
      in
      let rec walk seen = function
        | [] -> d.hmax
        | (upper, n) :: rest ->
          let seen = seen + n in
          if seen >= rank then min upper d.hmax else walk seen rest
      in
      max (walk 0 d.hbuckets) d.hmin
    end

  let hist_mean d = if d.hcount = 0 then 0. else float_of_int d.hsum /. float_of_int d.hcount

  (* Shortest float rendering that parses back exactly. *)
  let float_str f =
    let short = Printf.sprintf "%g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

  (* ---- Prometheus text exposition ---- *)

  let to_prometheus (s : snapshot) =
    let b = Buffer.create 1024 in
    List.iter
      (fun (name, m) ->
        match m with
        | Counter v ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v)
        | Gauge v ->
          Buffer.add_string b
            (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name (float_str v))
        | Histogram d ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" name);
          let cum = ref 0 in
          List.iter
            (fun (upper, n) ->
              cum := !cum + n;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" name upper !cum))
            d.hbuckets;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name d.hcount);
          Buffer.add_string b (Printf.sprintf "%s_sum %d\n" name d.hsum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" name d.hcount))
      s;
    Buffer.contents b

  (* ---- JSON snapshot codec ---- *)

  let json_escape = Chrome.escape

  let to_json (s : snapshot) =
    let b = Buffer.create 1024 in
    let sect kind keep emit =
      let first = ref true in
      Buffer.add_string b (Printf.sprintf "\"%s\":{" kind);
      List.iter
        (fun (name, m) ->
          match keep m with
          | None -> ()
          | Some v ->
            if !first then first := false else Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf "\"%s\":" (json_escape name));
            emit v)
        s;
      Buffer.add_char b '}'
    in
    Buffer.add_char b '{';
    sect "counters"
      (function Counter v -> Some v | _ -> None)
      (fun v -> Buffer.add_string b (string_of_int v));
    Buffer.add_char b ',';
    sect "gauges"
      (function Gauge v -> Some v | _ -> None)
      (fun v -> Buffer.add_string b (float_str v));
    Buffer.add_char b ',';
    sect "histograms"
      (function Histogram d -> Some d | _ -> None)
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "{\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":["
             d.hcount d.hsum d.hmin d.hmax);
        List.iteri
          (fun i (upper, n) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (Printf.sprintf "[%d,%d]" upper n))
          d.hbuckets;
        Buffer.add_string b "]}");
    Buffer.add_char b '}';
    Buffer.contents b
end

(* ---- closed-form cost model -------------------------------------------- *)

(* Expected op counts for the paper's sub-protocols (Algorithms 3-8),
   parameterised by the EHL+ cell count [cells] (the paper's s), the seen
   bit-vector width [seen] (one slot per source list, m), and the
   serialized ciphertext sizes.  The tier-1 test in test/test_obs.ml
   asserts these match measured counters *exactly* on small instances. *)
module Cost_model = struct
  type params = {
    cells : int;  (* EHL+ cells per item, s *)
    seen : int;  (* seen-vector width, m *)
    ct : int;  (* Paillier ciphertext bytes (S2 keypair) *)
    own_ct : int;  (* Paillier ciphertext bytes (S1's own keypair) *)
    req_base : int;  (* Wire request header bytes, excluding the label *)
    resp_base : int;  (* Wire response header bytes *)
  }

  type counts = {
    penc : int; pdec : int; pmul : int; prr : int;
    bytes : int; msgs : int; rounds : int;
  }

  let zero =
    { penc = 0; pdec = 0; pmul = 0; prr = 0; bytes = 0; msgs = 0; rounds = 0 }

  let to_alist c =
    Metrics.
      [ (Paillier_enc, c.penc); (Paillier_dec, c.pdec); (Paillier_mul, c.pmul);
        (Paillier_rerand, c.prr);
        (Bytes_sent, c.bytes); (Msgs, c.msgs); (Rounds, c.rounds) ]

  (* Bytes are measured from the Wire frames an rpc actually ships: a
     request costs [req_base + |label|] of header plus its payload, a
     response costs [resp_base] plus its payload; collection payloads add
     a 4-byte count prefix per list (wire.ml's closed forms). *)
  let req p ~label payload = p.req_base + String.length label + payload
  let resp p payload = p.resp_base + payload

  (* One batched rpc round over element payload lists ([Ctx.rpc_batch]'s
     framing): no elements → no traffic; a singleton delegates to a plain
     rpc; two or more ship one Batch/Batch_resp frame — a 4-byte count
     plus a tag byte per element on each side, one round, two messages. *)
  let batch_cost p ~label req_payloads resp_payloads =
    match (req_payloads, resp_payloads) with
    | [], [] -> (0, 0, 0)
    | [ rq ], [ rs ] -> (req p ~label rq + resp p rs, 2, 1)
    | _ ->
      let sum = List.fold_left (fun acc pl -> acc + 1 + pl) 4 in
      (req p ~label (sum req_payloads) + resp p (sum resp_payloads), 2, 1)

  (* Serialized scored item (count prefixes + fixed-width ciphertexts);
     SecDedup's masked item (no best score) and its escrow pack under
     S1's own key. *)
  let scored_b p = 8 + ((p.cells + 2 + p.seen) * p.ct)
  let masked_b p = 8 + ((p.cells + 1 + p.seen) * p.ct)
  let pack_b p = 8 + ((p.cells + 1 + p.seen) * p.own_ct)

  (* EncCompare (blinded sign test): one homomorphic subtraction plus a
     blinding scalar_mul on S1, one signed decryption on S2; the rpc ships
     one ciphertext out and a sign byte back. *)
  let enc_compare p =
    { zero with
      pmul = 2;
      pdec = 1;
      bytes = req p ~label:"EncCompare" p.ct + resp p 1;
      msgs = 2;
      rounds = 1 }

  (* SecWorst (Alg. 4) against [others] candidate lists, one pick: per
     other an EHL+ diff (one scalar_mul per cell) and a masked score (one
     encryption of its mask) out; S2 decrypts both and answers the
     masked sum and one Enc(t) per other; S1 removes the masks with one
     multi-exponentiation (a scalar_mul per other). *)
  let sec_worst_ops p j =
    { zero with penc = 1 + (2 * j); pdec = 2 * j; pmul = (p.cells * j) + j }

  let sec_worst_req j p = 4 + (j * p.ct) + 4 + (j * p.ct)
  let sec_worst_resp j p = 4 + ((1 + j) * p.ct)

  let sec_worst p ~others:j =
    { (sec_worst_ops p j) with
      bytes = req p ~label:"SecWorst" (sec_worst_req j p) + resp p (sec_worst_resp j p);
      msgs = 2;
      rounds = 1 }

  (* SecDedup over [items] candidates of which [dups] are non-keeper
     duplicates, one rpc carrying the count-prefixed pairwise EHL+ diffs
     (one scalar_mul per cell each).
     - Replace, a pick: every field (cells, worst, seen) masked (one
       encryption each); S2 decrypts the matrix and every field and
       answers Enc(d) and Enc(d * u) per field; S1 rewrites each field
       with one scalar_mul. Independent of [dups].
     - Eliminate (Alg. 6/7): masked items with escrow packs; S2 re-masks
       the survivors, S1 unmasks them with one encryption per component
       (of the negated mask: no scalar_mul). *)
  let sec_dedup p ~mode ~items:l ~dups:d =
    if l = 0 then zero
    else begin
      let pairs = l * (l - 1) / 2 in
      let cell = p.cells + 1 + p.seen in
      let diffs_b = 4 + (pairs * p.ct) in
      match mode with
      | `Replace ->
        { zero with
          pmul = (p.cells * pairs) + (l * cell);
          pdec = pairs + (l * cell);
          penc = (l * cell) + (l * (1 + cell));
          bytes =
            req p ~label:"SecDedup" (diffs_b + 4 + (l * (4 + (cell * p.ct))))
            + resp p (4 + (l * (1 + cell) * p.ct));
          msgs = 2;
          rounds = 1 }
      | `Eliminate ->
        let item_b = masked_b p + pack_b p in
        let kept = l - d in
        { zero with
          pmul = p.cells * pairs;
          pdec = pairs + (kept * cell);
          penc = (2 * cell * l) + (2 * cell * kept) + (kept * cell);
          bytes = req p ~label:"SecDedup" (diffs_b + 4 + (l * item_b)) + resp p (4 + (kept * item_b));
          msgs = 2;
          rounds = 1 }
    end

  let add a b =
    { penc = a.penc + b.penc; pdec = a.pdec + b.pdec; pmul = a.pmul + b.pmul;
      prr = a.prr + b.prr;
      bytes = a.bytes + b.bytes; msgs = a.msgs + b.msgs; rounds = a.rounds + b.rounds }

  let sum = List.fold_left add zero

  (* EncCompare.leq_many over [pairs] comparisons: per pair the same two
     scalar_muls and one signed decryption as [enc_compare], all sign
     tests in one batch round. Reduces to [enc_compare] at one pair. *)
  let enc_compare_many p ~pairs =
    if pairs = 0 then zero
    else begin
      let b, m, r =
        batch_cost p ~label:"EncCompare"
          (List.init pairs (fun _ -> p.ct))
          (List.init pairs (fun _ -> 1))
      in
      { zero with pmul = 2 * pairs; pdec = pairs; bytes = b; msgs = m; rounds = r }
    end

  (* Sec_worst.run_many over instances with [others] candidate-list
     widths: per-instance crypto is the sum of the singleton bodies, and
     every instance's pick shares one batch: one round however many
     instances (lists x shards) one depth carries. Reduces to
     [sec_worst] at a single instance. *)
  let sec_worst_many p ~others =
    let ops = sum (List.map (sec_worst_ops p) others) in
    let bytes, msgs, rounds =
      batch_cost p ~label:"SecWorst"
        (List.map (fun j -> sec_worst_req j p) others)
        (List.map (fun j -> sec_worst_resp j p) others)
    in
    { ops with bytes; msgs; rounds }

  (* EncSort, blinded strategy, over [items] scored candidates: blind +
     encrypt + signed-decrypt per item, full re-randomization on return;
     one Sort_items rpc carries keys + items out and the sorted items
     back. *)
  let enc_sort_blinded p ~items:l =
    let cell = p.cells + 2 + p.seen in
    { penc = l;
      pdec = l;
      pmul = l;
      prr = l * cell;
      bytes =
        req p ~label:"EncSort" (4 + (l * p.ct) + 4 + (l * scored_b p))
        + resp p (4 + (l * scored_b p));
      msgs = 2;
      rounds = 1 }

  (* One halting checkpoint (SecQuery's "ShardMerge" span): sort the
     concatenated running lists, then one batched NRA test — a pair per
     candidate outside the top-k plus one unseen-bound pair per
     non-exhausted shard. Two rounds, whatever [bounds] (the shard
     count) is: sharding widens the batches, never the round count. *)
  let shard_merge p ~items ~k ~bounds =
    let sort = enc_sort_blinded p ~items in
    if items < k then sort
    else sum [ sort; enc_compare_many p ~pairs:(items - k + bounds) ]
end
