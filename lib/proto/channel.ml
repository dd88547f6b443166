type direction = S1_to_s2 | S2_to_s1

type t = {
  mutable bytes : int;
  mutable messages : int;
  mutable rounds : int;
  by_label : (string, int) Hashtbl.t;
}

let create () = { bytes = 0; messages = 0; rounds = 0; by_label = Hashtbl.create 16 }

let send t ~dir:_ ~label ~bytes =
  if bytes < 0 then invalid_arg "Channel.send: negative size";
  Obs.add Obs.Metrics.Bytes_sent bytes;
  Obs.bump Obs.Metrics.Msgs;
  t.bytes <- t.bytes + bytes;
  t.messages <- t.messages + 1;
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.by_label label) in
  Hashtbl.replace t.by_label label (prev + bytes)

let round_trip t =
  Obs.bump Obs.Metrics.Rounds;
  t.rounds <- t.rounds + 1
let bytes_total t = t.bytes
let messages_total t = t.messages
let rounds_total t = t.rounds

let bytes_by_label t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_label []
  |> List.sort (fun (la, a) (lb, b) ->
         (* bytes descending, ties broken by label: hashtable order must
            never leak into reports or test expectations *)
         match compare b a with 0 -> compare la lb | c -> c)

let reset t =
  t.bytes <- 0;
  t.messages <- 0;
  t.rounds <- 0;
  Hashtbl.reset t.by_label

type snapshot = { bytes : int; messages : int; rounds : int }

let snapshot (t : t) = { bytes = t.bytes; messages = t.messages; rounds = t.rounds }

let diff a b =
  { bytes = b.bytes - a.bytes; messages = b.messages - a.messages; rounds = b.rounds - a.rounds }

let latency_of_snapshot ?(rtt_ms = 1.0) ~bandwidth_mbps s =
  let transfer = float_of_int (8 * s.bytes) /. (bandwidth_mbps *. 1e6) in
  transfer +. (float_of_int s.rounds *. rtt_ms /. 1000.)

let latency_seconds ?rtt_ms ~bandwidth_mbps t = latency_of_snapshot ?rtt_ms ~bandwidth_mbps (snapshot t)
