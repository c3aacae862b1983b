type day_row = {
  day : int;
  total_losses : int;
  shares : (Logsys.Cause.t * float) list;
}

let tracked_causes = Logsys.Cause.loss_causes @ [ Logsys.Cause.Unknown ]

let per_day (pipeline : Pipeline.t) =
  let days = pipeline.scenario.params.days in
  let counts =
    Array.init days (fun _ -> Hashtbl.create 8)
  in
  let totals = Array.make days 0 in
  List.iter
    (fun (key, time) ->
      let day = Scenario.Citysee.day_of pipeline.scenario time in
      let cause =
        match Pipeline.verdict_of pipeline key with
        | Some (v : Refill.Classify.verdict) when v.cause <> Logsys.Cause.Delivered ->
            v.cause
        | Some _ | None -> Logsys.Cause.Unknown
      in
      totals.(day) <- totals.(day) + 1;
      let tbl = counts.(day) in
      Hashtbl.replace tbl cause
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cause)))
    pipeline.loss_times;
  List.init days (fun day ->
      let total = totals.(day) in
      let shares =
        List.map
          (fun cause ->
            let c =
              Option.value ~default:0 (Hashtbl.find_opt counts.(day) cause)
            in
            (cause, Prelude.Stats.ratio c total))
          tracked_causes
      in
      { day; total_losses = total; shares })

let losses_per_day pipeline =
  let rows = per_day pipeline in
  Array.of_list (List.map (fun r -> r.total_losses) rows)
