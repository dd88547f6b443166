type event =
  | Equality_bits of { protocol : string; bits : bool list }
  | Dedup_matrix of { protocol : string; size : int; equal_pairs : (int * int) list }
  | Comparison of { protocol : string; ordering : int }
  | Count of { protocol : string; value : int }

type t = { mutable rev_events : event list; mutable n : int }

let create () = { rev_events = []; n = 0 }

let record t e =
  t.rev_events <- e :: t.rev_events;
  t.n <- t.n + 1

let events t = List.rev t.rev_events
let length t = t.n

let append_into src ~into = List.iter (record into) (events src)
