(* Host-speed calibration. On the shared VM the benchmark was built on,
   each vCPU switches between a fast and a slow state (the slow one about
   1.8x slower) in spells of 0.1-1 s, the two vCPUs independently of each
   other (their kernel times correlated at 0.1-0.17), and the share of slow
   time drifts for minutes. No amount of repetition inside a short run
   averages that out. So a run keeps one sampler domain pinned to each CPU
   it may use. Every [period] seconds each times a fixed kernel — code of
   the benchmark's own, not the code under test — and notes how many clock
   ticks its CPU was busy since its last sample. A time metric is scaled
   to the speed at which the kernel takes [reference] seconds (its time in
   the fast state) by the samples taken while it was measured, each
   weighted by its CPU's busy ticks: the processes under test see the
   state of the CPUs they run on. Unweighted, a single-threaded index build
   on one vCPU was scaled by the mean of both, which over-scaled it by up
   to 7% between fast and slow runs.

   The kernel is a schoolbook product of two 24-limb numbers in native
   ints, the shape of work that dominates the system's bignum arithmetic:
   over 60 s on one vCPU its time tracked a loop of the library's Paillier
   operations with a log correlation of 0.96.

   A sample is the kernel's thread CPU time. When the processes under test
   hold the sampler's CPU it waits without its clock running, so their load
   does not enter the factor: with zero, one or two CPU burners beside it,
   the kernel's 10th-percentile time stayed 1.08 ms and its median moved
   less than the drift between repeats. *)

let limbs = 24
let products = 1000
let reference = 1.08e-3
let period = 0.05

let kernel x y z =
  for _ = 1 to products do
    Array.fill z 0 (2 * limbs) 0;
    for i = 0 to limbs - 1 do
      let c = ref 0 in
      for j = 0 to limbs - 1 do
        let t = z.(i + j) + (x.(i) * y.(j)) + !c in
        z.(i + j) <- t land 0x3fffffff;
        c := t lsr 30
      done;
      z.(i + limbs) <- !c
    done;
    x.(0) <- z.(limbs / 4) lor 1
  done

(* [busy] and [stolen] are clock ticks of the sample's CPU since its
   previous sample *)
type sample = { at : float; factor : float; busy : float; stolen : float }

type t = {
  lock : Mutex.t;
  mutable samples : sample list;
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
}

let start () =
  let t = { lock = Mutex.create (); samples = []; stop = Atomic.make false; domains = [] } in
  let run cpu () =
    (try Proc.pin_cpu cpu with Unix.Unix_error _ -> ());
    let x = Array.init limbs (fun i -> ((i * 7919) + 13) land 0x3fffffff)
    and y = Array.init limbs (fun i -> ((i * 104729) + 7) land 0x3fffffff)
    and z = Array.make (2 * limbs) 0 in
    let clock = Proc.thread_clock () in
    let rec loop (busy, stolen) =
      if not (Atomic.get t.stop) then begin
        let c0 = Proc.clock_seconds clock in
        kernel x y z;
        let c1 = Proc.clock_seconds clock and busy', stolen' = Proc.cpu_ticks cpu in
        let s =
          { at = Unix.gettimeofday (); factor = reference /. (c1 -. c0);
            busy = float_of_int (busy' - busy); stolen = float_of_int (stolen' - stolen) }
        in
        Mutex.lock t.lock;
        t.samples <- s :: t.samples;
        Mutex.unlock t.lock;
        Unix.sleepf period;
        loop (busy', stolen')
      end
    in
    loop (Proc.cpu_ticks cpu)
  in
  let cpus = Array.to_list (Proc.allowed_cpus ()) |> List.filteri (fun i _ -> i < 8) in
  t.domains <- List.map (fun cpu -> Domain.spawn (run cpu)) cpus;
  t

let stop t =
  Atomic.set t.stop true;
  List.iter Domain.join t.domains;
  t.domains <- []

let within t ~t0 ~t1 =
  Mutex.lock t.lock;
  let ss = List.filter (fun s -> s.at >= t0 && s.at <= t1) t.samples in
  Mutex.unlock t.lock;
  ss

let sum f ss = List.fold_left (fun acc s -> acc +. f s) 0. ss

(* The factor that takes a time measured between [t0] and [t1] to
   reference speed: the busy-weighted mean of the samples in that window,
   widened by a period on either side so that a short operation has one
   (the plain mean if no CPU was busy). *)
let factor t ~t0 ~t1 =
  match within t ~t0:(t0 -. period) ~t1:(t1 +. period) with
  | [] -> 1.
  | ss when sum (fun s -> s.busy) ss = 0. -> Stats.mean (List.map (fun s -> s.factor) ss)
  | ss -> sum (fun s -> s.factor *. s.busy) ss /. sum (fun s -> s.busy) ss

(* CPU seconds the hypervisor stole, over all CPUs, between [t0] and [t1].
   No CPU clock counts them, and at reference speed there are none. *)
let stolen t ~t0 ~t1 = sum (fun s -> s.stolen) (within t ~t0 ~t1) /. Lazy.force Proc.ticks

(* Only CPU time stretches with the host: the part of a wall time spent
   waiting (on the emulated link, the disk, process start) does not, and
   the part stolen from it goes. So a wall time of which [cpu_share] was
   CPU time and [stolen_share] stolen is scaled by this instead of [k]. *)
let effective ~cpu_share ~stolen_share k =
  let cpu_share = Float.min 1. cpu_share in
  1. -. (cpu_share *. (1. -. k)) -. Float.max 0. (Float.min stolen_share (1. -. cpu_share))
