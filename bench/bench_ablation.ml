(* Ablation benches for the design choices called out in DESIGN.md:
   - EncSort strategy: bitonic network (faithful to [7]) vs one-round
     blinded sort;
   - halting test: full NRA bound check vs the paper-literal (k+1)-only
     check;
   - blinding exponent width: full Z_n vs statistical.
   These quantify what each engineering decision buys or costs. *)

open Crypto
open Dataset
open Topk
open Bench_util

let sort_strategies () =
  header "ablation: EncSort strategies (time and bytes for one sort)";
  row "%6s %16s %16s %16s %16s@." "items" "network t(s)" "blinded t(s)" "network KB" "blinded KB";
  let keys = Prf.gen_keys rng ehl_s in
  let mk_items l =
    List.init l (fun i ->
        {
          Proto.Enc_item.ehl = Ehl.Ehl_plus.encode rng pub ~keys ("o" ^ string_of_int i);
          worst = Paillier.encrypt rng pub (Bignum.Nat.of_int (i * 37 mod 101));
          best = Paillier.encrypt rng pub (Bignum.Nat.of_int ((i * 37 mod 101) + 5));
          seen = [| Paillier.encrypt rng pub Bignum.Nat.one |];
        })
  in
  List.iter
    (fun l ->
      let items = mk_items l in
      let run strategy =
        let ctx = fresh_ctx () in
        let _, t = time (fun () -> Proto.Enc_sort.sort ctx ~strategy items) in
        (t, Proto.Channel.bytes_total (Proto.Ctx.channel ctx))
      in
      let tn, bn = run Proto.Enc_sort.Network in
      let tb, bb = run Proto.Enc_sort.Blinded in
      row "%6d %16.3f %16.3f %16.1f %16.1f@." l tn tb
        (float_of_int bn /. 1024.) (float_of_int bb /. 1024.))
    [ 8; 16; 32 ]

let halting_checks () =
  header "ablation: halting test `All (NRA-complete) vs `KthOnly (paper-literal)";
  row "%12s %14s %14s %12s %12s@." "dataset" "All t/depth" "Kth t/depth" "All depth" "Kth depth";
  List.iter
    (fun rel ->
      let run halting =
        let ctx = fresh_ctx () in
        let er, key = Sectopk.Scheme.encrypt ~s:ehl_s (Rng.fork rng ~label:"enc") pub rel in
        let tk = Sectopk.Scheme.token key ~m_total:(Relation.n_attrs rel) (Scoring.sum_of [ 0; 1; 2 ]) ~k:5 in
        let res =
          Sectopk.Query.run ctx er tk
            { Sectopk.Query.default_options with variant = Sectopk.Query.Elim; halting;
              max_depth = Some 25 }
        in
        (mean res.Sectopk.Query.depth_seconds, res.Sectopk.Query.halting_depth)
      in
      let ta, da = run `All in
      let tk_, dk = run `KthOnly in
      row "%12s %13.3fs %13.3fs %12d %12d@." (Relation.name rel) ta tk_ da dk)
    (eval_datasets ~rows:60)

let compare_protocols () =
  header "ablation: EncCompare instantiations (blinded sign vs DGK bitwise)";
  row "%14s %16s %16s@." "" "us per compare" "bytes";
  let run name f =
    let ctx = fresh_ctx () in
    let a = Paillier.encrypt rng pub (Bignum.Nat.of_int 123) in
    let b = Paillier.encrypt rng pub (Bignum.Nat.of_int 456) in
    let reps = 30 in
    let (), t = time (fun () -> for _ = 1 to reps do ignore (f ctx a b) done) in
    row "%14s %16.1f %16d@." name
      (1e6 *. t /. float_of_int reps)
      (Proto.Channel.bytes_total (Proto.Ctx.channel ctx) / reps)
  in
  run "blinded-sign" (fun ctx a b -> Proto.Enc_compare.leq ctx a b);
  run "dgk-16" (fun ctx a b -> Proto.Enc_compare.leq_dgk ctx ~bits:16 a b);
  run "dgk-32" (fun ctx a b -> Proto.Enc_compare.leq_dgk ctx ~bits:32 a b)

let blinding_width () =
  header "ablation: statistical blinding width (EHL+ diff cost)";
  row "%12s %16s@." "blind bits" "us per diff";
  let keys = Prf.gen_keys rng ehl_s in
  let a = Ehl.Ehl_plus.encode rng pub ~keys "x" and b = Ehl.Ehl_plus.encode rng pub ~keys "y" in
  (* a phase inverts the first side once for all its diffs *)
  let inv_a = (Ehl.Ehl_plus.invert_many pub [| a |]).(0) in
  List.iter
    (fun blind_bits ->
      let reps = 50 in
      let (), t =
        time (fun () ->
            for _ = 1 to reps do
              let blinds = Ehl.Ehl_plus.draw_blinds ?blind_bits rng pub a in
              ignore (Ehl.Ehl_plus.diff pub ~blinds inv_a b)
            done)
      in
      row "%12s %16.1f@."
        (match blind_bits with Some b -> string_of_int b | None -> "full Z_n")
        (1e6 *. t /. float_of_int reps))
    [ Some 32; Some 48; Some 64; None ]

let parallel_encryption () =
  header "ablation: parallel database encryption (OCaml domains)";
  row "(host exposes %d core(s); speedup is bounded by that)@."
    (Domain.recommended_domain_count ());
  row "%10s %14s %10s@." "domains" "time (s)" "speedup";
  let rel = Synthetic.paper_synthetic ~seed:"par" ~rows:500 in
  let base = ref 0. in
  List.iter
    (fun domains ->
      let _, t =
        time (fun () ->
            Sectopk.Scheme.encrypt ~s:ehl_s ~domains (Rng.fork rng ~label:"par") pub rel)
      in
      if domains = 1 then base := t;
      row "%10d %14.2f %9.1fx@." domains t (!base /. t))
    [ 1; 2; 4; 8 ]

let run () =
  sort_strategies ();
  halting_checks ();
  compare_protocols ();
  blinding_width ();
  parallel_encryption ()
