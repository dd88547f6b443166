(* A crew: a fixed set of worker domains parked on one condition. Two
   kinds of work reach them:

   - jobs, whole requests (the serving daemon's queries), admitted by
     [submit] behind a bounded queue, so overload surfaces as an
     immediate [`Busy] instead of unbounded queueing;
   - help, a fan-out loop posted by [lend] on behalf of a domain that is
     running a Pool.run batch, and only to workers parked with nothing
     queued for them.

   A worker takes a queued job before any help, and a helping worker
   asks [job_waiting] between chunks, so help delays a query by at most
   one chunk and never counts against admission. serve-s1's crew is its
   [--workers] domains; Pool starts a crew of its own for fan-outs made
   outside any crew. *)

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled when a job or help arrives, or draining starts *)
  idle : Condition.t;  (* signalled when a job finishes *)
  jobs : (unit -> unit) Queue.t;
  help : (unit -> unit) Queue.t;
  queue_depth : int;
  domains : int;
  mutable running : int;  (* jobs currently executing *)
  mutable helping : int;  (* workers running help *)
  mutable accepting : bool;
  mutable crew : unit Domain.t list;
}

(* the crew the calling domain works for, if any *)
let member : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get member

let worker t () =
  Domain.DLS.set member (Some t);
  let rec loop () =
    Mutex.lock t.lock;
    while t.accepting && Queue.is_empty t.jobs && Queue.is_empty t.help do
      Condition.wait t.work t.lock
    done;
    match Queue.take_opt t.jobs with
    | Some job ->
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      (try job () with _ -> ());
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      Condition.broadcast t.idle;
      Mutex.unlock t.lock;
      loop ()
    | None -> (
      match Queue.take_opt t.help with
      | Some help ->
        t.helping <- t.helping + 1;
        Mutex.unlock t.lock;
        (try help () with _ -> ());
        Mutex.lock t.lock;
        t.helping <- t.helping - 1;
        Mutex.unlock t.lock;
        loop ()
      | None ->
        (* not accepting and nothing queued: the crew retires *)
        Mutex.unlock t.lock)
  in
  loop ()

let drain t =
  Mutex.lock t.lock;
  if t.accepting then begin
    t.accepting <- false;
    Condition.broadcast t.work
  end;
  while (not (Queue.is_empty t.jobs)) || t.running > 0 do
    Condition.wait t.idle t.lock
  done;
  let crew = t.crew in
  t.crew <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join crew

let create ~domains ~queue_depth =
  if domains <= 0 then invalid_arg "Service.create: domains <= 0";
  if queue_depth < 0 then invalid_arg "Service.create: queue_depth < 0";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      jobs = Queue.create ();
      help = Queue.create ();
      queue_depth;
      domains;
      running = 0;
      helping = 0;
      accepting = true;
      crew = [];
    }
  in
  (* a spawn that fails part-way retires the workers already started *)
  let rec spawn n =
    if n > 0 then begin
      match Domain.spawn (worker t) with
      | d ->
        t.crew <- d :: t.crew;
        spawn (n - 1)
      | exception e ->
        drain t;
        raise e
    end
  in
  spawn domains;
  t

(* Admission: a job is taken if a worker can start it immediately or the
   waiting queue has room; otherwise the caller learns [`Busy] right away
   (never blocks). Help is not counted: a helping worker returns to the
   queue within one chunk. *)
let submit t job =
  Mutex.lock t.lock;
  let verdict =
    if t.accepting && t.running + Queue.length t.jobs < t.domains + t.queue_depth then begin
      Queue.add job t.jobs;
      Condition.signal t.work;
      `Accepted
    end
    else `Busy
  in
  Mutex.unlock t.lock;
  verdict

(* A worker is free when it runs neither a job nor help and no queued job
   or posted help is already bound for it (a worker still starting up
   counts: it looks at both queues before it first parks). A draining
   crew lends nothing: its idle workers are retiring. *)
let lend t ~max help =
  Mutex.lock t.lock;
  let free =
    if t.accepting then
      t.domains - t.running - t.helping - Queue.length t.jobs - Queue.length t.help
    else 0
  in
  for _ = 1 to min max free do
    Queue.add help t.help;
    Condition.signal t.work
  done;
  Mutex.unlock t.lock

let job_waiting t = Mutex.protect t.lock (fun () -> not (Queue.is_empty t.jobs))
