open Crypto

let run ~domains ~jobs f =
  if jobs < 0 then invalid_arg "Pool.run: jobs < 0";
  if domains <= 1 || jobs <= 1 then Array.init jobs f
  else begin
    let results = Array.make jobs None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= jobs then continue := false else results.(i) <- Some (f i)
      done
    in
    let spawned = Array.init (min domains jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map Option.get results
  end

(* One task on a fresh helper domain, joined explicitly by the caller.
   Used for work overlapped with the calling domain (an in-flight RPC
   batch). OCaml 5 refuses [Unix.fork] once the process has spawned any
   domain, so Transport.spawn_daemon must run before the first one. *)
type 'a task = 'a Domain.t

let background f = Domain.spawn f
let await t = Domain.join t

(* Explicit loop: forking mutates the parent generator, so the order of
   forks is part of the determinism contract (Array.init's evaluation
   order is unspecified). *)
let fork_rngs rng ~jobs =
  let rngs = Array.make jobs rng in
  for i = 0 to jobs - 1 do
    rngs.(i) <- Rng.fork rng ~label:("par:" ^ string_of_int i)
  done;
  rngs

let map_rng rng ~domains ~jobs f =
  let rngs = fork_rngs rng ~jobs in
  run ~domains ~jobs (fun i -> f rngs.(i) i)
