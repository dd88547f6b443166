(* Compares two sets of result files written by [main.exe run --out]: one
   or more runs of a base commit against one or more of a candidate.
   Metrics that BENCHMARK.json bounds are compared by the ratio of their
   medians; a metric whose run-to-run spread (interquartile distance over
   median, on either side) is wider than its bound is "unresolved" unless
   every candidate run beats every base run. Unbounded counts must match
   exactly; other unbounded values are shown for information. *)

(* ---- just enough JSON to read BENCHMARK.json ---------------------------- *)

type json = Null | Bool of bool | Num of float | Str of string | Arr of json list | Obj of (string * json) list

let parse_json s =
  let n = String.length s and pos = ref 0 in
  let fail () = invalid_arg (Printf.sprintf "JSON: unexpected input at byte %d" !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let eat c =
    skip ();
    if peek () <> c then fail ();
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ()
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        (match s.[!pos + 1] with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4) land 0x7f));
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        pos := !pos + 2;
        go ()
      | '\000' -> fail ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      Obj (members (fun () ->
          let k = string () in
          eat ':';
          (k, value ())) '}')
    | '[' ->
      incr pos;
      Arr (members value ']')
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do incr pos done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail ())
  and members : 'a. (unit -> 'a) -> char -> 'a list =
   fun item close ->
    skip ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip ();
        match peek () with
        | ',' -> incr pos; go acc
        | c when c = close -> incr pos; List.rev acc
        | _ -> fail ()
      in
      go []
  in
  let v = value () in
  skip ();
  if !pos <> n then fail ();
  v

(* ---- the comparison ----------------------------------------------------- *)

type bound = { lower_is_better : bool; bound : float }

let bounds_of_file path =
  let field k = function Obj kv -> List.assoc_opt k kv | _ -> None in
  match field "end_to_end" (parse_json (In_channel.with_open_bin path In_channel.input_all)) with
  | Some (Arr ms) ->
    List.filter_map
      (fun m ->
        match (field "name" m, field "better" m, field "bound" m) with
        | Some (Str name), Some (Str better), Some (Num bound) ->
          Some (name, { lower_is_better = better = "lower"; bound })
        | _ -> None)
      ms
  | _ -> invalid_arg (path ^ ": no end_to_end list")

(* "workload metric value unit" lines; one value per file and key *)
let read_results files =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun file ->
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             match String.split_on_char ' ' (String.trim line) with
             | [ w; m; v; u ] -> (
               match float_of_string_opt v with
               | Some v ->
                 let vs, _ = Option.value ~default:([], u) (Hashtbl.find_opt tbl (w, m)) in
                 Hashtbl.replace tbl (w, m) (vs @ [ v ], u)
               | None -> ())
             | _ -> ()))
    files;
  tbl

let count_units = [ "count"; "rounds"; "KB"; "B"; "fraction" ]

(* prints one row per (workload, metric); true when nothing regressed or
   changed *)
let run ~bounds ~base ~cand =
  let bounds = bounds_of_file bounds in
  let b = read_results base and c = read_results cand in
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) b [] @ Hashtbl.fold (fun k _ acc -> k :: acc) c []
    |> List.sort_uniq compare
  in
  Printf.printf "%-8s %-22s %14s %14s %9s %8s  %s\n" "workload" "metric" "base" "candidate" "change"
    "spread" "verdict";
  List.fold_left
    (fun ok ((w, m) as key) ->
      match (Hashtbl.find_opt b key, Hashtbl.find_opt c key) with
      | Some (bs, unit), Some (cs, _) ->
        let mb = Stats.median bs and mc = Stats.median cs in
        let spread = Float.max (Stats.spread bs) (Stats.spread cs) in
        let verdict =
          match List.assoc_opt m bounds with
          | Some { lower_is_better; bound } ->
            let worse = if lower_is_better then (mc /. mb) -. 1. else 1. -. (mc /. mb) in
            let beats =
              if lower_is_better then List.for_all (fun x -> List.for_all (fun y -> x < y) bs) cs
              else List.for_all (fun x -> List.for_all (fun y -> x > y) bs) cs
            in
            if spread > bound then if beats then "better" else "unresolved"
            else if worse > bound then "REGRESSION"
            else if worse < -.bound then "better"
            else "ok"
          | None when List.mem unit count_units ->
            if List.for_all (fun x -> x = List.hd bs) (bs @ cs) then "ok" else "CHANGED"
          | None -> "info"
        in
        Printf.printf "%-8s %-22s %14.6g %14.6g %+8.1f%% %7.1f%%  %s\n" w m mb mc
          (100. *. ((mc /. mb) -. 1.))
          (100. *. spread) verdict;
        ok && verdict <> "REGRESSION" && verdict <> "CHANGED"
      | _ ->
        Printf.printf "%-8s %-22s %s\n" w m "missing on one side";
        false)
    true keys
