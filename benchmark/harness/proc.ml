(* Child processes of the harness: daemons announced on a stdout pipe,
   one-shot commands with their resource usage, /proc sampling, and a
   bounded teardown. Every child started here is registered until it has
   been reaped, and [stop_all] (run at exit) stops whatever is left. *)

external wait4_raw : int -> bool -> int * bool * int * float * int = "bench_wait4"
external clock_ticks : unit -> int = "bench_clock_ticks"

(* CPU-time clock of the calling thread (a domain), and a reading of such
   a clock from any thread *)
external thread_clock : unit -> int = "bench_thread_clock"
external clock_seconds : int -> float = "bench_clock_seconds"

(* the CPUs this process may run on, and pinning the calling thread to one *)
external allowed_cpus : unit -> int array = "bench_allowed_cpus"
external pin_cpu : int -> unit = "bench_pin_cpu"

type usage = { cpu_s : float; maxrss_kb : int }

type exit_info = { ok : bool; code : int; usage : usage }

let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let live_lock = Mutex.create ()

let with_live f =
  Mutex.lock live_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_lock) f

let decode (pid, exited, code, cpu_s, maxrss_kb) =
  if pid = 0 then None
  else begin
    with_live (fun () -> Hashtbl.remove live pid);
    Some { ok = exited && code = 0; code; usage = { cpu_s; maxrss_kb } }
  end

let wait pid = Option.get (decode (wait4_raw pid false))
let try_wait pid = decode (wait4_raw pid true)

let spawn prog args ~stdout ~stderr =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout stderr in
  with_live (fun () -> Hashtbl.replace live pid ());
  pid

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let read_all fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run a command to completion; returns its exit, its stdout and its wall
   time. stderr goes to [log]. *)
let run prog args ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = open_log log in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close err)
      (fun () -> spawn prog args ~stdout:w ~stderr:err)
  in
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let info = wait pid in
  (info, out, Unix.gettimeofday () -. t0)

(* ---- daemons ------------------------------------------------------------ *)

type daemon = { pid : int; out : Unix.file_descr; port : int }

let port_of_line line =
  let tag = "127.0.0.1:" in
  let tl = String.length tag and n = String.length line in
  let rec find i =
    if i + tl > n then None
    else if String.sub line i tl = tag then begin
      let j = ref (i + tl) in
      while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do incr j done;
      if !j > i + tl then Some (int_of_string (String.sub line (i + tl) (!j - i - tl)))
      else find (i + 1)
    end
    else find (i + 1)
  in
  find 0

(* Readiness is the daemon's own announcement: the first stdout line that
   names 127.0.0.1:PORT, printed once its listener accepts. *)
let await_port fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
  let rec scan () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i -> (
      let line = String.sub s 0 i in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      match port_of_line line with Some p -> Some p | None -> scan ())
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else begin
        match Unix.select [ fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> scan ()
        | [], _, _ -> None
        | _ -> (
          match Unix.read fd chunk 0 1024 with
          | 0 -> None
          | n ->
            Buffer.add_subbytes buf chunk 0 n;
            scan ())
      end
  in
  scan ()

let forced = Atomic.make 0

(* SIGTERM, repeated every 50 ms — a signal that lands on a worker domain
   while the main one blocks in accept(2) can go unnoticed — then SIGKILL
   once [grace] seconds have passed. A kill counts in [forced]. *)
let stop_pid ?(grace = 5.) pid =
  let signal s = try Unix.kill pid s with Unix.Unix_error _ -> () in
  let t0 = Unix.gettimeofday () in
  let rec poll last_term =
    match try_wait pid with
    | Some info -> info
    | None ->
      let now = Unix.gettimeofday () in
      if now -. t0 >= grace then begin
        signal Sys.sigkill;
        Atomic.incr forced;
        wait pid
      end
      else begin
        let last_term =
          if now -. last_term >= 0.05 then (signal Sys.sigterm; now) else last_term
        in
        Unix.sleepf 0.005;
        poll last_term
      end
  in
  signal Sys.sigterm;
  poll t0

let start ~name ~log prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = open_log log in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close err)
      (fun () -> spawn prog args ~stdout:w ~stderr:err)
  in
  match await_port r ~timeout:120. with
  | Some port -> { pid; out = r; port }
  | None ->
    ignore (stop_pid ~grace:1. pid);
    Unix.close r;
    failwith
      (Printf.sprintf "%s did not announce a port; its stderr:\n%s" name
         (In_channel.with_open_bin log In_channel.input_all))

let stop d =
  let info = stop_pid d.pid in
  Unix.close d.out;
  info

let stop_all () =
  let pids = with_live (fun () -> Hashtbl.fold (fun pid () acc -> pid :: acc) live []) in
  List.iter (fun pid -> ignore (stop_pid ~grace:2. pid)) pids

(* ---- /proc sampling ----------------------------------------------------- *)

let read_proc path = In_channel.with_open_bin path In_channel.input_all
let ticks = lazy (float_of_int (clock_ticks ()))

(* utime + stime of a live process, in seconds *)
let cpu_seconds pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* fields follow the parenthesised command name, which may hold spaces;
     the first of them is field 3 (state), utime and stime are 14 and 15 *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(14 - 3) +. float_of_string fields.(15 - 3)) /. Lazy.force ticks

(* clock ticks a CPU has spent busy (user, nice, system, irq, softirq),
   and ticks the hypervisor stole from it while it had work *)
let cpu_ticks cpu =
  let tag = Printf.sprintf "cpu%d " cpu in
  read_proc "/proc/stat"
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:tag line then
           match List.map int_of_string (List.tl (List.filter (( <> ) "") (String.split_on_char ' ' line))) with
           | user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
             Some (user + nice + system + irq + softirq, steal)
           | _ -> None
         else None)
  |> Option.value ~default:(0, 0)

(* peak resident set (VmHWM) of a live process, in KiB *)
let peak_rss_kb pid =
  read_proc (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
         | _ -> None)
  |> Option.value ~default:0
