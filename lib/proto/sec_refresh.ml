open Crypto

let protocol = "SecRefresh"

let run_many (ctx : Ctx.t) blocks =
  Obs.span protocol @@ fun () ->
  let s1 = ctx.Ctx.s1 in
  Gadgets.pass_through blocks
    ~pass:(function [], _ -> Some [] | _ :: _, _ -> None)
    (fun live ->
      (* one batched lift for all seen bits of all items, one Lift request
         per block *)
      let lifted =
        Gadgets.lift_many ctx ~protocol
          (List.map
             (fun (items, _) ->
               List.concat_map (fun (it : Enc_item.scored) -> Array.to_list it.Enc_item.seen) items)
             live)
      in
      let zero = Gadgets.enc_zero s1 in
      (* every (item, list) adjustment is independent: one batched recover
         for every block. Choice (idx, l) adds bottom_l only when the
         object has not been seen in list l. *)
      let choices =
        List.map2
          (fun (items, bottoms) lifted ->
            let m = Array.length bottoms and lifted = Array.of_list lifted in
            List.concat
              (List.mapi
                 (fun idx (_ : Enc_item.scored) ->
                   List.init m (fun l -> (lifted.((idx * m) + l), zero, bottoms.(l))))
                 items))
          live lifted
      in
      let adjs =
        Gadgets.chunks (List.map List.length choices)
          (Array.of_list (Gadgets.select_recover_many ctx ~protocol (List.concat choices)))
      in
      List.map2
        (fun (items, bottoms) adjs ->
          let m = Array.length bottoms and adjs = Array.of_list adjs in
          List.mapi
            (fun idx (it : Enc_item.scored) ->
              let best = ref it.Enc_item.worst in
              for l = 0 to m - 1 do
                best := Paillier.add s1.pub !best adjs.((idx * m) + l)
              done;
              { it with Enc_item.best = !best })
            items)
        live adjs)

let run ctx ~items ~bottoms = List.hd (run_many ctx [ (items, bottoms) ])
