type rung = {
  rate : float;
  p99_us : float;
  shed : int;
  drops : int;
  backlog_growth : int;
}

let max_rate_at_p99 ~limit_us ~tolerance rungs =
  List.fold_left
    (fun best r ->
      let ok =
        r.p99_us <= limit_us && r.shed = 0 && r.drops = 0
        && r.backlog_growth <= tolerance
      in
      match best with
      | Some b when ok && r.rate > b -> Some r.rate
      | None when ok -> Some r.rate
      | _ -> best)
    None rungs
