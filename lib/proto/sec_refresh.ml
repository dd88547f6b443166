open Bignum
open Crypto

let protocol = "SecRefresh"

(* S1's draws for one block, on the calling domain: per list a mask
   rho_l uniform over all of Z_n and its noise, then per (item, list)
   pair, item-major, a coin and a noise draw. *)
let draw (s1 : Ctx.s1) (items, bottoms) =
  let pub = s1.pub in
  let masks =
    Array.init (Array.length bottoms) (fun _ ->
        let rho = Rng.nat_below s1.rng pub.Paillier.n in
        (rho, Paillier.draw_noise s1.rng pub))
  in
  let coins =
    Array.init
      (List.length items * Array.length bottoms)
      (fun _ ->
        let c = Rng.bool s1.rng in
        (c, Paillier.draw_noise s1.rng pub))
  in
  (masks, coins)

(* [Modular.inv_many] over the entries of [xs] that [pick] selects, the
   others left at zero *)
let inv_where pick xs ~m =
  let idx = List.filter pick (List.init (Array.length xs) Fun.id) in
  let out = Array.make (Array.length xs) Nat.zero in
  List.iter2
    (fun i inv -> out.(i) <- inv)
    idx
    (Modular.inv_many (List.map (fun i -> xs.(i)) idx) ~m);
  out

let run_many (ctx : Ctx.t) blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  let pub = s1.pub in
  let n = pub.Paillier.n and n2 = pub.Paillier.n2 in
  Gadgets.pass_through blocks
    ~pass:(function [], _ -> Some [] | _ :: _, _ -> None)
    (fun live ->
      let draws = List.map (draw s1) live in
      (* flat views over every block: one entry per (block, list) and
         one per (block, item, list) pair *)
      let bottoms = Array.concat (List.map snd live) in
      let masks = Array.concat (List.map fst draws) in
      let coins = Array.concat (List.map snd draws) in
      let seen =
        Array.of_list
          (List.concat_map
             (fun (items, _) ->
               List.concat_map (fun (it : Enc_item.scored) -> Array.to_list it.seen) items)
             live)
      in
      (* a flipped pair sends Enc(1 - s) = (1 + n) * s^-1 *)
      let flip = inv_where (fun i -> fst coins.(i)) (Array.map Paillier.to_nat seen) ~m:n2 in
      let masked =
        Ctx.map ctx ~jobs:(Array.length bottoms) (fun l ->
            let rho, noise = masks.(l) in
            Paillier.add pub bottoms.(l)
              (Paillier.encrypt_with pub ~noise:(Paillier.noise_of pub noise) rho))
      in
      let bits =
        Ctx.map ctx ~jobs:(Array.length seen) (fun i ->
            let c, noise = coins.(i) in
            let x =
              if c then Paillier.of_nat pub (Modular.mul (Nat.succ n) flip.(i) ~m:n2)
              else seen.(i)
            in
            Paillier.rerandomize_with pub ~noise:(Paillier.noise_of pub noise) x)
      in
      (* one Refresh request per block; S2 answers Enc(b * (b_l + rho_l))
         per pair *)
      let lists = List.map (fun (_, bottoms) -> Array.length bottoms) live in
      let pairs =
        List.map (fun (items, bottoms) -> List.length items * Array.length bottoms) live
      in
      let replies =
        List.map2
          (fun p resp ->
            match resp with
            | Wire.Cts rs when List.length rs = p -> rs
            | Wire.Cts rs ->
              Proto_error.fail "Sec_refresh.run_many: %d ciphertexts for %d pairs"
                (List.length rs) p
            | _ -> Proto_error.fail "Sec_refresh.run_many: expected Cts")
          pairs
          (Ctx.rpc_batch ctx ~label:protocol
             (List.map2
                (fun bottoms bits -> Wire.Refresh { bottoms; bits })
                (Gadgets.chunks lists masked) (Gadgets.chunks pairs bits)))
        |> List.concat |> Array.of_list
      in
      let r_inv =
        inv_where (fun i -> not (fst coins.(i))) (Array.map Paillier.to_nat replies) ~m:n2
      in
      (* every item with the offsets of its block's lists and of its own
         first pair *)
      let items =
        let _, _, acc =
          List.fold_left
            (fun (loff, poff, acc) (items, bottoms) ->
              let m = Array.length bottoms in
              let poff, acc =
                List.fold_left
                  (fun (p, acc) it -> (p + m, (it, loff, p, m) :: acc))
                  (poff, acc) items
              in
              (loff + m, poff, acc))
            (0, 0, []) live
        in
        Array.of_list (List.rev acc)
      in
      (* best = worst + sum_l (1 - s_l) * b_l, where per pair
         (1 - s) * b = r - (1 - s) * rho after a flip (x = Enc(1 - s)) and
         (1 - s) * b = b - r + s * rho otherwise (x = Enc(s)): the ciphertext
         products first, then one multi-exponentiation over the m terms
         x^(-rho) or x^rho *)
      let refreshed =
        Ctx.map ctx ~jobs:(Array.length items) (fun j ->
            let (it : Enc_item.scored), loff, poff, m = items.(j) in
            let best = ref it.worst and terms = ref [] in
            for l = m - 1 downto 0 do
              let i = poff + l and rho = fst masks.(loff + l) in
              if fst coins.(i) then begin
                best := Paillier.add pub !best replies.(i);
                terms := (bits.(i), Nat.sub n rho) :: !terms
              end
              else begin
                best :=
                  Paillier.add pub !best
                    (Paillier.add pub bottoms.(loff + l) (Paillier.of_nat pub r_inv.(i)));
                terms := (bits.(i), rho) :: !terms
              end
            done;
            { it with best = Paillier.add pub !best (Paillier.scalar_mul_many pub !terms) })
      in
      Gadgets.chunks (List.map (fun (items, _) -> List.length items) live) refreshed)

let run ctx ~items ~bottoms = List.hd (run_many ctx [ (items, bottoms) ])
