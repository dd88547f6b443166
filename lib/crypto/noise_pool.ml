open Bignum

(* A stream of re-randomization noise (r^n mod n^2 for Paillier, r^{n^2}
   mod n^3 for Damgard-Jurik) drawn from its own forked generator.

   Determinism: value [i] is the [i]-th draw from the pool's root
   generator, so the stream a protocol run sees is a pure function of
   the creating generator's state. The lock serialises concurrent takers,
   which then see the stream in lock order.

   The generator runs under a throwaway Obs collector: the exponentiation
   is the pool's cost, not the protocol's. Consumption is accounted
   instead — one [Rerand_pool] bump per [take]. *)

type t = { gen : Rng.t -> Nat.t; root : Rng.t; mutex : Mutex.t }

let create rng ~label gen = { gen; root = Rng.fork rng ~label; mutex = Mutex.create () }

let take t =
  Obs.bump Obs.Metrics.Rerand_pool;
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Obs.with_collector (Obs.Collector.create ()) (fun () -> t.gen t.root))
