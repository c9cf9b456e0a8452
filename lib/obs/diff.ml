module Summary = Flipc_stats.Summary

(* ------------------------------------------------------------------ *)
(* One side's derived report.                                          *)

type site_stat = {
  st_spans : int;
  st_completed : int;
  st_totals : float array; (* completed spans' total ns, stream order *)
}

type side = {
  s_records : int;
  s_spans : int;
  s_violations : ((string * int) * int) list; (* (rule, node) -> count *)
  s_counters : (string * int) list; (* event kind -> count *)
  s_latency : Latency.t;
  s_sites : ((int * int) * site_stat) list;
}

type t = { base : side; cand : side }

let bump assoc key =
  match List.assoc_opt key !assoc with
  | Some n -> assoc := (key, n + 1) :: List.remove_assoc key !assoc
  | None -> assoc := (key, 1) :: !assoc

let derive (capture : Replay.t) =
  let records = Replay.records capture in
  (* Violations: a detached monitor over the record stream. *)
  let mon = Monitor.create () in
  List.iter (fun r -> Monitor.feed mon ~now:r.Replay.r_ts r.Replay.r_ev) records;
  let violations = ref [] in
  List.iter
    (fun v -> bump violations (v.Monitor.rule, v.Monitor.node))
    (Monitor.violations mon);
  (* Counters: event-kind population. *)
  let counters = ref [] in
  List.iter (fun r -> bump counters (Event.kind r.Replay.r_ev)) records;
  (* Stage latencies: the same fold a live run attaches. *)
  let latency = Latency.create () in
  Latency.feed latency records;
  (* Spans -> per-site stream accounting. *)
  let spans = Replay.spans capture in
  let sites = Hashtbl.create 8 in
  List.iter
    (fun (span : Causal.span) ->
      (* Site: source node of the first step, destination node of the
         delivery (or the wire arrival) if one happened. *)
      let src =
        match span.steps with s :: _ -> Event.node s.ev | [] -> -1
      in
      let dst =
        match
          List.find_opt
            (fun (s : Causal.step) ->
              match s.ev with
              | Event.Recv_dequeued _ | Event.Deposit _ | Event.Wire_rx _ ->
                  true
              | _ -> false)
            span.steps
        with
        | Some s -> Event.node s.ev
        | None -> -1
      in
      let completed =
        List.exists
          (fun (s : Causal.step) ->
            match s.ev with Event.Recv_dequeued _ -> true | _ -> false)
          span.steps
      in
      let total_ns = Latency.stage_ns Latency.Total_stage span in
      let cur =
        match Hashtbl.find_opt sites (src, dst) with
        | Some c -> c
        | None -> { st_spans = 0; st_completed = 0; st_totals = [||] }
      in
      Hashtbl.replace sites (src, dst)
        {
          st_spans = cur.st_spans + 1;
          st_completed = (cur.st_completed + if completed then 1 else 0);
          st_totals =
            (match total_ns with
            | Some t -> Array.append cur.st_totals [| float_of_int t |]
            | None -> cur.st_totals);
        })
    spans;
  {
    s_records = List.length records;
    s_spans = List.length spans;
    s_violations =
      List.sort compare !violations;
    s_counters = List.sort compare !counters;
    s_latency = latency;
    s_sites =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sites [] |> List.sort compare;
  }

let compare_runs ~base ~cand = { base = derive base; cand = derive cand }

(* ------------------------------------------------------------------ *)
(* Diff views.                                                         *)

let quantile arr p =
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let sorted = Array.copy arr in
    Array.sort compare sorted;
    Some sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  end

let violation_sets t =
  let keys side = List.map fst side.s_violations in
  let base_keys = keys t.base and cand_keys = keys t.cand in
  let added =
    List.filter (fun k -> not (List.mem k base_keys)) cand_keys
  in
  let removed =
    List.filter (fun k -> not (List.mem k cand_keys)) base_keys
  in
  let changed =
    List.filter_map
      (fun (k, bc) ->
        match List.assoc_opt k t.cand.s_violations with
        | Some cc when cc <> bc -> Some (k, bc, cc)
        | _ -> None)
      t.base.s_violations
  in
  (added, removed, changed)

let regressions t =
  let added, _, _ = violation_sets t in
  List.length added

let us ns = ns /. 1000.

(* Per-stage p50/p99 in microseconds, base and candidate. *)
let stage_rows t =
  List.filter_map
    (fun stage ->
      let b = Latency.stage_summary t.base.s_latency stage in
      let c = Latency.stage_summary t.cand.s_latency stage in
      let p50 = Option.map (fun s -> s.Summary.p50) in
      let p99 = Option.map (fun s -> s.Summary.p99) in
      match (b, c) with
      | None, None -> None
      | _ -> Some (Latency.stage_name stage, p50 b, p50 c, p99 b, p99 c))
    Latency.all_stages

let counter_rows t =
  let kinds =
    List.sort_uniq compare
      (List.map fst t.base.s_counters @ List.map fst t.cand.s_counters)
  in
  List.filter_map
    (fun k ->
      let b = Option.value ~default:0 (List.assoc_opt k t.base.s_counters) in
      let c = Option.value ~default:0 (List.assoc_opt k t.cand.s_counters) in
      if b = 0 && c = 0 then None else Some (k, b, c))
    kinds

let site_rows t =
  let keys =
    List.sort_uniq compare
      (List.map fst t.base.s_sites @ List.map fst t.cand.s_sites)
  in
  List.map
    (fun key ->
      let get side =
        Option.value
          ~default:{ st_spans = 0; st_completed = 0; st_totals = [||] }
          (List.assoc_opt key side.s_sites)
      in
      let b = get t.base and c = get t.cand in
      (* Ordinal alignment: pair the i-th completed span of the stream
         in each run and take the median per-pair latency shift. *)
      let pairs = min (Array.length b.st_totals) (Array.length c.st_totals) in
      let pair_delta =
        if pairs = 0 then None
        else
          quantile
            (Array.init pairs (fun i -> c.st_totals.(i) -. b.st_totals.(i)))
            0.5
      in
      (key, b, c, pair_delta))
    keys

let opt_us_json = function
  | None -> Json.Null
  | Some ns -> Json.Float (us ns)

let opt_json = function None -> Json.Null | Some v -> Json.Float v

let json t =
  let added, removed, changed = violation_sets t in
  let vkey (rule, node) = [ ("rule", Json.String rule); ("node", Json.Int node) ] in
  Json.Obj
    [
      ( "records",
        Json.Obj
          [
            ("base", Json.Int t.base.s_records);
            ("cand", Json.Int t.cand.s_records);
          ] );
      ( "spans",
        Json.Obj
          [
            ("base", Json.Int t.base.s_spans);
            ("cand", Json.Int t.cand.s_spans);
          ] );
      ( "violations",
        Json.Obj
          [
            ( "added",
              Json.List
                (List.map
                   (fun k ->
                     Json.Obj
                       (vkey k
                       @ [
                           ( "count",
                             Json.Int
                               (Option.value ~default:0
                                  (List.assoc_opt k t.cand.s_violations)) );
                         ]))
                   added) );
            ( "removed",
              Json.List
                (List.map
                   (fun k ->
                     Json.Obj
                       (vkey k
                       @ [
                           ( "count",
                             Json.Int
                               (Option.value ~default:0
                                  (List.assoc_opt k t.base.s_violations)) );
                         ]))
                   removed) );
            ( "changed",
              Json.List
                (List.map
                   (fun (k, bc, cc) ->
                     Json.Obj
                       (vkey k
                       @ [ ("base", Json.Int bc); ("cand", Json.Int cc) ]))
                   changed) );
          ] );
      ( "counters",
        Json.List
          (List.map
             (fun (k, b, c) ->
               Json.Obj
                 [
                   ("kind", Json.String k);
                   ("base", Json.Int b);
                   ("cand", Json.Int c);
                   ("delta", Json.Int (c - b));
                 ])
             (counter_rows t)) );
      ( "stages",
        Json.List
          (List.map
             (fun (stage, bp50, cp50, bp99, cp99) ->
               Json.Obj
                 [
                   ("stage", Json.String stage);
                   ("base_p50_us", opt_json bp50);
                   ("cand_p50_us", opt_json cp50);
                   ("base_p99_us", opt_json bp99);
                   ("cand_p99_us", opt_json cp99);
                 ])
             (stage_rows t)) );
      ( "sites",
        Json.List
          (List.map
             (fun ((src, dst), b, c, pair_delta) ->
               Json.Obj
                 [
                   ("src", Json.Int src);
                   ("dst", Json.Int dst);
                   ("base_spans", Json.Int b.st_spans);
                   ("cand_spans", Json.Int c.st_spans);
                   ("base_completed", Json.Int b.st_completed);
                   ("cand_completed", Json.Int c.st_completed);
                   ("pair_p50_delta_us", opt_us_json pair_delta);
                 ])
             (site_rows t)) );
      ("violations_added", Json.Int (List.length added));
    ]

let pp fmt t =
  let added, removed, changed = violation_sets t in
  Format.fprintf fmt "capture diff (candidate vs baseline)@.";
  Format.fprintf fmt "  records %d -> %d, spans %d -> %d@." t.base.s_records
    t.cand.s_records t.base.s_spans t.cand.s_spans;
  if added = [] && removed = [] && changed = [] then
    Format.fprintf fmt "  violations: no change (%d keys)@."
      (List.length t.base.s_violations)
  else begin
    List.iter
      (fun ((rule, node) as k) ->
        Format.fprintf fmt "  violation ADDED   %s on node %d (x%d)@." rule node
          (Option.value ~default:0 (List.assoc_opt k t.cand.s_violations)))
      added;
    List.iter
      (fun ((rule, node) as k) ->
        Format.fprintf fmt "  violation removed %s on node %d (was x%d)@." rule
          node
          (Option.value ~default:0 (List.assoc_opt k t.base.s_violations)))
      removed;
    List.iter
      (fun ((rule, node), bc, cc) ->
        Format.fprintf fmt "  violation count   %s on node %d: %d -> %d@." rule
          node bc cc)
      changed
  end;
  List.iter
    (fun (stage, bp50, cp50, bp99, cp99) ->
      let f = function None -> "-" | Some v -> Printf.sprintf "%.2f" v in
      Format.fprintf fmt "  stage %-6s p50 %sus -> %sus, p99 %sus -> %sus@."
        stage (f bp50) (f cp50) (f bp99) (f cp99))
    (stage_rows t);
  List.iter
    (fun ((src, dst), (b : site_stat), (c : site_stat), pair_delta) ->
      Format.fprintf fmt
        "  site %d->%d spans %d/%d completed %d/%d pair-p50 shift %s@." src dst
        b.st_spans c.st_spans b.st_completed c.st_completed
        (match pair_delta with
        | None -> "-"
        | Some ns -> Printf.sprintf "%+.2fus" (us ns)))
    (site_rows t);
  let top =
    List.filter (fun (_, b, c) -> b <> c) (counter_rows t)
  in
  if top = [] then Format.fprintf fmt "  event counters: identical@."
  else
    List.iter
      (fun (k, b, c) ->
        Format.fprintf fmt "  events %-15s %d -> %d (%+d)@." k b c (c - b))
      top
