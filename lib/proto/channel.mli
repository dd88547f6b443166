(** The S1 <-> S2 link. Every byte the two clouds exchange flows through
    [send], labelled with the protocol that produced it, which is what the
    bandwidth experiments (Fig. 13, Table 3) measure. The channel also
    models link latency analytically, as the paper does (Section 11.2.5). *)

type direction = S1_to_s2 | S2_to_s1

type t

val create : unit -> t

(** [send t ~dir ~label ~bytes] records one message. *)
val send : t -> dir:direction -> label:string -> bytes:int -> unit

(** Mark the end of a request/response round trip. *)
val round_trip : t -> unit

val bytes_total : t -> int
val messages_total : t -> int
val rounds_total : t -> int

(** Bytes grouped by protocol label, descending. *)
val bytes_by_label : t -> (string * int) list

(** Zero all counters. *)
val reset : t -> unit

(** Snapshot of the counters, for before/after diffs. *)
type snapshot = { bytes : int; messages : int; rounds : int }

val snapshot : t -> snapshot
val diff : snapshot -> snapshot -> snapshot

(** Analytic latency of the traffic recorded so far: transfer time at
    [bandwidth_mbps] plus [rtt_ms] per round trip (the paper assumes a
    50 Mbps inter-cloud link). *)
val latency_seconds : ?rtt_ms:float -> bandwidth_mbps:float -> t -> float

val latency_of_snapshot : ?rtt_ms:float -> bandwidth_mbps:float -> snapshot -> float
