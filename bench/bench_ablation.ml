(* Ablation benches for the design choices called out in DESIGN.md:
   - EncSort strategy: bitonic network (faithful to [7]) vs one-round
     blinded sort;
   - blinding exponent width: full Z_n vs statistical;
   - database encryption across OCaml domains.
   These quantify what each engineering decision buys or costs. *)

open Crypto
open Dataset
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
  blinding_width ();
  parallel_encryption ()
