(* The directories the tests build stores in, under the temporary
   directory: each is named after the executable's pid and a counter, and
   all of them are removed, with whatever was written inside, when the
   executable exits. *)

let made = ref []
let counter = ref 0
let owner = Unix.getpid ()

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* a forked child runs at_exit too; only the process that named the
   directories removes them *)
let () =
  at_exit (fun () ->
      if Unix.getpid () = owner then
        List.iter
          (fun dir -> try remove dir with Unix.Unix_error _ | Sys_error _ -> ())
          !made)

let fresh prefix =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !counter)
  in
  made := dir :: !made;
  dir
