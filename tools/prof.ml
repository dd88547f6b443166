(* Quick wall-clock profiler for the crypto substrate; the min-of-trials
   micro-bench (bench/main.exe -- --only micro) is the rigorous version.
   Each primitive runs in an Obs span, so the closing report shows the
   op/modexp counts behind every wall time. *)
open Bignum

let () =
  Obs.set_enabled true;
  let collector = Obs.Collector.create () in
  let rng = Crypto.Rng.create ~seed:"prof" in
  let pub, sk = Crypto.Paillier.keygen ~rand_bits:96 rng ~bits:192 in
  let time name n f =
    Obs.with_collector collector (fun () ->
        Obs.span name (fun () ->
            Printf.printf "%-28s %8.3f ms/op\n%!" name (1000. *. Obs.Timer.per_call ~n f)))
  in
  let x = Crypto.Rng.nat_below rng pub.Crypto.Paillier.n in
  let c = Crypto.Paillier.encrypt rng pub x in
  time "paillier encrypt (short)" 200 (fun () -> Crypto.Paillier.encrypt rng pub x);
  time "paillier decrypt" 100 (fun () -> Crypto.Paillier.decrypt sk c);
  time "paillier scalar_mul 48b" 500 (fun () -> Crypto.Paillier.scalar_mul pub c (Crypto.Rng.nat_bits rng 48));
  let n2 = pub.Crypto.Paillier.n2 in
  let a = Crypto.Rng.nat_below rng n2 and b = Crypto.Rng.nat_below rng n2 in
  time "modmul n2 (384b)" 20000 (fun () -> Modular.mul a b ~m:n2);
  print_newline ();
  Obs.Report.print collector
