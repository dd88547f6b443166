(* A fan-out splits its items into this many contiguous chunks whatever
   the width: a borrowed worker gets back to its own queue within one
   chunk. No chunk owns randomness, so the count moves no byte. *)
let chunks = 8

(* The crew of a process that has none of its own (the CLI, benches,
   tests), started on the first fan-out that wants one: OCaml 5 refuses
   [Unix.fork] once a domain runs, so Transport.spawn_daemon forks
   before it. A start that fails (every domain slot taken) is retried by
   the next fan-out, which meanwhile runs inline. *)
let standby =
  let lock = Mutex.create () and crew = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !crew with
        | Some c -> c
        | None -> (
          let n = Domain.recommended_domain_count () - 1 in
          match if n < 1 then None else Some (Service.create ~domains:n ~queue_depth:0) with
          | c ->
            crew := Some c;
            c
          | exception Failure _ -> None))

(* The engine. Up to [helpers] parked workers of the caller's crew are
   lent a loop that claims chunks until none is left (or, on a borrowed
   worker, until a job waits for it); the caller claims chunks too, and
   then waits only for the chunks others claimed. So it never waits on
   a chunk nobody started, and with no parked worker everything runs
   inline. [body] must not raise. *)
let fan ~helpers ~n body =
  let next = Atomic.make 0 in
  let lock = Mutex.create () and all_done = Condition.create () in
  let left = ref n in
  let rec claim ~yield () =
    if not (yield ()) then begin
      let c = Atomic.fetch_and_add next 1 in
      if c < n then begin
        body c;
        Mutex.lock lock;
        decr left;
        if !left = 0 then Condition.broadcast all_done;
        Mutex.unlock lock;
        claim ~yield ()
      end
    end
  in
  (if helpers > 0 then
     let crew = match Service.current () with Some c -> Some c | None -> standby () in
     Option.iter
       (fun crew ->
         Service.lend crew ~max:helpers (claim ~yield:(fun () -> Service.job_waiting crew)))
       crew);
  claim ~yield:(fun () -> false) ();
  Mutex.lock lock;
  while !left > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock

let run ~domains ~jobs f =
  if jobs < 0 then invalid_arg "Pool.run: jobs < 0";
  if domains <= 1 || jobs <= 1 then Array.init jobs f
  else begin
    let n = min chunks jobs in
    let results = Array.make jobs None in
    let cols = Array.init n (fun _ -> Obs.Collector.create ()) in
    let failed = Atomic.make None in
    let body c =
      Obs.with_collector cols.(c) (fun () ->
          let i = ref (c * jobs / n) and hi = (c + 1) * jobs / n in
          (* once an item has raised, no further item starts *)
          while !i < hi && Option.is_none (Atomic.get failed) do
            (match f !i with
            | v -> results.(!i) <- Some v
            | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failed None (Some (e, bt))));
            incr i
          done)
    in
    fan ~helpers:(min domains n - 1) ~n body;
    (* chunk collectors join the caller's current collector in chunk
       order, so counters and span trees do not depend on who ran which
       chunk *)
    Option.iter
      (fun into -> Array.iter (fun c -> Obs.Collector.merge_into c ~into) cols)
      (Obs.current ());
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end

(* [Array.init] applies its function in index order, so the draws are
   made in the same order at every width. At width 1 each item's draw is
   made just before its work, so no more than one item's draws are held
   at a time. *)
let map_drawn ~domains ~jobs ~draw f =
  if domains <= 1 then Array.init jobs (fun i -> f i (draw i))
  else begin
    let draws = Array.init jobs draw in
    run ~domains ~jobs (fun i -> f i draws.(i))
  end
