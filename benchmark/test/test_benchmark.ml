(* The benchmark's own checks: the link proxy delays and preserves bytes,
   and the harness drives real build-index / serve-s2 / serve-s1
   processes end to end on a tiny index, with every answer checked.

   Usage: test_benchmark.exe MAIN_EXE TOPK_CLI_EXE *)

open Benchmark_harness

let main_exe = Sys.argv.(1)
let cli = Sys.argv.(2)

let with_work f =
  let work = Printf.sprintf "work-%d" (Unix.getpid ()) in
  Bench.rm_rf work;
  Unix.mkdir work 0o755;
  Fun.protect
    ~finally:(fun () ->
      Proc.stop_all ();
      Bench.rm_rf work)
    (fun () -> f work)

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let read_exactly fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then
      match Unix.read fd b off (n - off) with
      | 0 -> Bytes.sub_string b 0 off
      | k -> go (off + k)
    else Bytes.to_string b
  in
  go 0

let port_of fd = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false

(* 64 KiB each way over 2 ms / 50 Mbit/s: a direction cannot deliver the
   last byte sooner than 8 * 65536 / 50e6 s (10.5 ms) plus half the RTT *)
let proxy_link () =
  with_work @@ fun work ->
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let proxy =
    Proc.start ~name:"link-proxy" ~log:(Filename.concat work "proxy.log") main_exe
      [ "proxy"; "--upstream"; string_of_int (port_of lsock) ]
  in
  let c = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, proxy.Proc.port));
  let s, _ = Unix.accept ~cloexec:true lsock in
  let payload = String.init 65536 (fun i -> Char.chr (((i * 7) + (i / 256)) land 0xff)) in
  let t0 = Unix.gettimeofday () in
  write_all c payload 0;
  let there = read_exactly s 65536 in
  let t1 = Unix.gettimeofday () in
  write_all s there 0;
  let back = read_exactly c 65536 in
  let t2 = Unix.gettimeofday () in
  let one_way = (8. *. 65536. /. 50e6) +. 1e-3 in
  Alcotest.(check bool) "arrives intact upstream" true (there = payload);
  Alcotest.(check bool) "arrives intact back" true (back = payload);
  Alcotest.(check bool)
    (Printf.sprintf "one way takes >= %.2f ms (took %.2f)" (one_way *. 1e3) ((t1 -. t0) *. 1e3))
    true
    (t1 -. t0 >= one_way);
  Alcotest.(check bool)
    (Printf.sprintf "the exchange takes >= 12.5 ms (took %.2f)" ((t2 -. t0) *. 1e3))
    true
    (t2 -. t0 >= 0.0125);
  (* end of stream on one side closes the other *)
  Unix.close c;
  Alcotest.(check string) "upstream sees EOF" "" (read_exactly s 1);
  Unix.close s;
  Unix.close lsock;
  ignore (Proc.stop proxy)

(* a 12 x 3 index, two queries per pass *)
let tiny name =
  {
    (Workload.spec name) with
    Workload.data = { Workload.layout = Workload.Aligned; rows = 12; attrs = 3; gap = 16 };
    classes = [ (2, 3, false); (3, 2, true) ];
  }

let positive (r : Bench.result) =
  List.iter
    (fun (m : Bench.metric) ->
      Alcotest.(check bool) (m.Bench.name ^ " is positive") true (Float.is_finite m.Bench.value && m.Bench.value > 0.))
    r.Bench.metrics

let clean (r : Bench.result) =
  Alcotest.(check (list string)) "no wrong or irreproducible answer" [] r.Bench.notes;
  Alcotest.(check bool) "correct" true r.Bench.correct;
  Alcotest.(check int) "no failed operation" 0 r.Bench.failed

let run_tiny name f =
  with_work @@ fun work ->
  let env = { Bench.cli; self = main_exe; work } in
  let t0 = Unix.gettimeofday () in
  let r = f env (tiny name) ~seed:"smoke" ~seconds:0. in
  let dt = Unix.gettimeofday () -. t0 in
  clean r;
  Alcotest.(check bool) (Printf.sprintf "under 10 s (took %.1f)" dt) true (dt < 10.);
  r

let served () = positive (run_tiny Workload.Shallow Bench.e2e)
let ingest () = positive (run_tiny Workload.Ingest Bench.e2e)

let traced () =
  let r = run_tiny Workload.Shallow Bench.per_layer in
  Alcotest.(check bool) "reports the layers" true (List.length r.Bench.metrics > 50)

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "benchmark"
    [
      ("link proxy", [ Alcotest.test_case "64 KiB over 2 ms / 50 Mbit/s" `Quick proxy_link ]);
      ( "smoke",
        [
          Alcotest.test_case "served queries through the real daemons" `Quick served;
          Alcotest.test_case "index builds" `Quick ingest;
          Alcotest.test_case "traced replay reproduces the served answers" `Quick traced;
        ] );
    ]
