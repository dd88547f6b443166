(** Store directories for the tests, removed when the executable exits. *)

(** [fresh prefix] names a directory [prefix_PID_N] under the temporary
    directory that nothing has used yet. It is not created; whatever is
    at that path when the executable exits is removed. *)
val fresh : string -> string
