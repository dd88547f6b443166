(** A write-once cell shared between domains: one side parks on {!read}
    until another {!fill}s it. *)

type 'a t

val create : unit -> 'a t

(** [fill t v] stores [v] and wakes every reader. Fill each cell once. *)
val fill : 'a t -> 'a -> unit

(** [read t] blocks until [t] is filled, then returns its value. *)
val read : 'a t -> 'a
