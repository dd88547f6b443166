type stats = { shards : int; merge_rounds : int }

let run_with_stats ctx ers tk options =
  let res, merge_rounds = Sectopk.Query.run_sharded ctx ers tk options in
  (res, { shards = Array.length ers; merge_rounds })

let run ctx ers tk options = fst (run_with_stats ctx ers tk options)
