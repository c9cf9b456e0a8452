module Summary = Flipc_stats.Summary
module Vtime = Flipc_sim.Vtime

type stage = Send_stage | Wire_stage | Queue_stage | Recv_stage | Total_stage

let stage_name = function
  | Send_stage -> "send"
  | Wire_stage -> "wire"
  | Queue_stage -> "queue"
  | Recv_stage -> "recv"
  | Total_stage -> "total"

let all_stages = [ Send_stage; Wire_stage; Queue_stage; Recv_stage; Total_stage ]

let stage_index = function
  | Send_stage -> 0
  | Wire_stage -> 1
  | Queue_stage -> 2
  | Recv_stage -> 3
  | Total_stage -> 4

(* The lifecycle milestones in path order, and the one table of stage
   boundaries over them. *)
let milestone = function
  | Event.Send_enqueued _ -> 0
  | Event.Engine_tx _ -> 1
  | Event.Wire_rx _ -> 2
  | Event.Deposit _ -> 3
  | Event.Recv_dequeued _ -> 4
  | _ -> -1

let last_milestone = 4

let bounds = function
  | Send_stage -> (0, 1)
  | Wire_stage -> (1, 2)
  | Queue_stage -> (2, 3)
  | Recv_stage -> (3, 4)
  | Total_stage -> (0, 4)

let stage_ns stage (span : Causal.span) =
  let a, b = bounds stage in
  let first m =
    List.find_map
      (fun (s : Causal.step) ->
        if milestone s.ev = m then Some (Vtime.to_ns s.ts) else None)
      span.steps
  in
  match (first a, first b) with
  | Some t0, Some t1 when t1 >= t0 -> Some (t1 - t0)
  | _ -> None

(* Open records in a table indexed by mid. A slot holds one message:
   its mid (0 = free), whether it is counted as dropped, and the time it
   reached each milestone before the last (-1 = not yet). The last
   milestone closes the record and frees the slot. *)
let slots = 65_536

type t = {
  mids : int array;
  lost : Bytes.t;
  stamps : int array; (* slot * last_milestone + milestone *)
  sketches : Sketch.t array; (* by stage index *)
  mutable unmatched : int;
  mutable dropped_in_flight : int;
}

let create () =
  {
    mids = Array.make slots 0;
    lost = Bytes.make slots '\000';
    stamps = Array.make (slots * last_milestone) (-1);
    sketches = Array.init (List.length all_stages) (fun _ -> Sketch.create ());
    unmatched = 0;
    dropped_in_flight = 0;
  }

let sketch t stage = t.sketches.(stage_index stage)
let is_lost t s = Bytes.get t.lost s <> '\000'
let set_lost t s b = Bytes.set t.lost s (if b then '\001' else '\000')

let open_record t s ~mid ~now =
  if t.mids.(s) <> 0 && not (is_lost t s) then t.unmatched <- t.unmatched + 1;
  t.mids.(s) <- mid;
  set_lost t s false;
  let base = s * last_milestone in
  t.stamps.(base) <- now;
  for m = 1 to last_milestone - 1 do
    t.stamps.(base + m) <- -1
  done

let reach t s m ~now =
  let base = s * last_milestone in
  if m = last_milestone || t.stamps.(base + m) < 0 then begin
    List.iter
      (fun stage ->
        let a, b = bounds stage in
        let t0 = t.stamps.(base + a) in
        if b = m && t0 >= 0 then
          Sketch.observe (sketch t stage) (float_of_int (now - t0) /. 1000.))
      all_stages;
    if m < last_milestone then t.stamps.(base + m) <- now
    else begin
      if is_lost t s then t.dropped_in_flight <- t.dropped_in_flight - 1;
      t.mids.(s) <- 0
    end
  end

let ends_path = function
  | Event.Drop _ | Event.Fault { kind = Event.Fault_drop | Event.Fault_corrupt; _ }
    ->
      true
  | _ -> false

let observe t ~now ev =
  let m = milestone ev in
  if m >= 0 || ends_path ev then
    match Event.mid ev with
    | None -> ()
    | Some mid ->
        let s = mid land (slots - 1) in
        let now = Vtime.to_ns now in
        if m = 0 then open_record t s ~mid ~now
        else if t.mids.(s) <> mid then t.unmatched <- t.unmatched + 1
        else if m > 0 then reach t s m ~now
        else if not (is_lost t s) then begin
          set_lost t s true;
          t.dropped_in_flight <- t.dropped_in_flight + 1
        end

let attach obs =
  let t = create () in
  Obs.add_watcher obs (fun now ev -> observe t ~now ev);
  t

let feed t records =
  List.iter (fun (r : Replay.record) -> observe t ~now:r.r_ts r.r_ev) records

let stage_count t stage = Sketch.count (sketch t stage)
let stage_sum_us t stage = Sketch.sum (sketch t stage)
let stage_mean_us t stage = Sketch.mean (sketch t stage)
let stage_summary t stage = Sketch.summary (sketch t stage)
let unmatched t = t.unmatched
let dropped_in_flight t = t.dropped_in_flight

let pp fmt t =
  List.iter
    (fun stage ->
      match stage_summary t stage with
      | None -> Fmt.pf fmt "%-6s (no samples)@." (stage_name stage)
      | Some s ->
          Fmt.pf fmt "%-6s n=%-7d mean=%8.2fus p50=%8.2fus p99=%8.2fus@."
            (stage_name stage) (stage_count t stage) s.Summary.mean
            s.Summary.p50 s.Summary.p99)
    all_stages;
  if t.unmatched > 0 || t.dropped_in_flight > 0 then
    Fmt.pf fmt "unmatched=%d dropped-in-flight=%d@." t.unmatched
      t.dropped_in_flight

let json t =
  Json.Obj
    (List.map
       (fun stage ->
         ( stage_name stage,
           Json.Obj
             (("count", Json.Int (stage_count t stage))
              ::
              (match stage_summary t stage with
              | None -> []
              | Some s -> [ ("us", Metrics.summary_json s) ])) ))
       all_stages
    @ [
        ("unmatched", Json.Int t.unmatched);
        ("dropped_in_flight", Json.Int t.dropped_in_flight);
      ])
