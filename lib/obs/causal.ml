module Vtime = Flipc_sim.Vtime

type step = { ts : Vtime.t; pid : int; machine : string; ev : Event.t }
type span = { mid : int; steps : step list }

(* Chronological merge of every machine's retained events, each tagged
   with its machine of origin. Per-tracer lists are already in time
   order; the global stable sort keeps emission order within a tick. *)
let merged_entries obs_list =
  List.concat_map
    (fun o ->
      let pid = Obs.id o and machine = Obs.label o in
      List.map
        (fun (e : Tracer.entry) -> { ts = e.ts; pid; machine; ev = e.ev })
        (Tracer.to_list (Obs.tracer o)))
    obs_list
  |> List.stable_sort (fun a b -> compare a.ts b.ts)

let spans_of_steps entries =
  let by_mid : (int, step list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let push mid step =
    match Hashtbl.find_opt by_mid mid with
    | Some l -> l := step :: !l
    | None ->
        Hashtbl.add by_mid mid (ref [ step ]);
        order := mid :: !order
  in
  (* Doorbell events carry no mid (a doorbell covers a whole batch of
     releases); bind each one to every message enqueued on that (node,
     ep) and not yet picked up by an [Engine_tx]. *)
  let awaiting : (int * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let waiting key =
    match Hashtbl.find_opt awaiting key with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add awaiting key l;
        l
  in
  List.iter
    (fun step ->
      (match Event.mid step.ev with Some m -> push m step | None -> ());
      match step.ev with
      | Event.Send_enqueued { node; ep; mid; _ } when mid > 0 ->
          let l = waiting (node, ep) in
          l := !l @ [ mid ]
      | Event.Doorbell { node; ep } ->
          List.iter (fun m -> push m step) !(waiting (node, ep))
      | Event.Engine_tx { node; ep; mid; _ } when mid > 0 ->
          let l = waiting (node, ep) in
          l := List.filter (fun m -> m <> mid) !l
      | _ -> ())
    entries;
  List.rev_map
    (fun mid -> { mid; steps = List.rev !(Hashtbl.find by_mid mid) })
    !order

let spans obs_list = spans_of_steps (merged_entries obs_list)
let find spans mid = List.find_opt (fun s -> s.mid = mid) spans

let stage_of ev =
  match ev with
  | Event.Send_enqueued _ -> "send"
  | Event.Doorbell _ -> "doorbell"
  | Event.Engine_tx _ -> "engine_tx"
  | Event.Fault _ -> "wire_fault"
  | Event.Wire_rx _ -> "wire_rx"
  | Event.Deposit _ -> "queue"
  | Event.Recv_dequeued _ -> "recv"
  | Event.Drop _ -> "drop"
  | Event.Frame_tx { retransmit; _ } ->
      if retransmit then "retransmit" else "frame_tx"
  | Event.Frame_deliver _ -> "frame_deliver"
  | Event.Window_send _ -> "window_send"
  | ev -> Event.name ev

(* What the message is waiting for, judged by the last event observed on
   its path — the vocabulary of watchdog reports. *)
(* A span whose packet the fault injector dropped or corrupted and that
   never reached the far side: the fault fires inside the transmit path,
   so [Engine_tx] can carry the same timestamp and sort after it — judge
   by the whole span, not the last event. A corrupted frame's receiver-
   side checksum discard carries mid 0 (the bits are untrusted), so the
   original span shows only the [Fault_corrupt] marker. *)
let lost_on_wire kind span =
  List.exists
    (fun s ->
      match s.ev with
      | Event.Fault { kind = k; _ } -> k = kind
      | _ -> false)
    span.steps
  && not
       (List.exists
          (fun s ->
            match s.ev with
            | Event.Wire_rx _ | Event.Deposit _ | Event.Recv_dequeued _
            | Event.Drop _ | Event.Frame_deliver _ ->
                true
            | _ -> false)
          span.steps)

let wire_dropped span = lost_on_wire Event.Fault_drop span

let corrupt_verdict =
  "corrupted on the wire (receiver discarded the frame by checksum)"

(* A corrupted frame can still reach the destination engine — [Wire_rx]
   is stamped on arrival, before the checksum runs — so "corrupted and
   discarded" means: a [Fault_corrupt] marker with no delivery evidence
   after it (no deposit, dequeue or frame release; the checksum discard
   itself carries mid 0, its id bits being untrustworthy). *)
let corrupt_discarded span =
  List.exists
    (fun s ->
      match s.ev with
      | Event.Fault { kind = Event.Fault_corrupt; _ } -> true
      | _ -> false)
    span.steps
  && not
       (List.exists
          (fun s ->
            match s.ev with
            | Event.Deposit _ | Event.Recv_dequeued _ | Event.Drop _
            | Event.Frame_deliver _ ->
                true
            | _ -> false)
          span.steps)

let stalled_stage span =
  if wire_dropped span then "dropped on the wire (fault injection)"
  else if corrupt_discarded span then corrupt_verdict
  else
    match List.rev span.steps with
    | [] -> "never sent (no events recorded)"
    | last :: _ -> (
      match last.ev with
      | Event.Send_enqueued _ | Event.Doorbell _ | Event.Frame_tx _
      | Event.Window_send _ ->
          "awaiting engine transmit (send queued, engine has not drained it)"
      | Event.Engine_tx _ -> "awaiting wire arrival (in the fabric)"
      | Event.Fault { kind = Event.Fault_drop; _ } ->
          "dropped on the wire (fault injection)"
      | Event.Fault { kind = Event.Fault_corrupt; _ } -> corrupt_verdict
      | Event.Fault _ -> "awaiting wire arrival (in the fabric, after fault)"
      | Event.Wire_rx _ ->
          "awaiting deposit (arrived, engine has not queued it)"
      | Event.Deposit _ ->
          "awaiting application dequeue (deposited, receiver has not taken \
           it)"
      | Event.Drop { reason; _ } ->
          Printf.sprintf "dropped at destination (%s)"
            (Event.drop_reason_name reason)
      | Event.Recv_dequeued _ | Event.Frame_deliver _ -> "delivered"
      | ev -> Printf.sprintf "after %s" (Event.name ev))

let pp_step fmt s =
  Fmt.pf fmt "[%9d ns] %-24s %-12s %a" (Vtime.to_ns s.ts) s.machine
    (stage_of s.ev) Event.pp s.ev

let pp_span fmt span =
  Fmt.pf fmt "msg %d (%d events) — %s@," span.mid (List.length span.steps)
    (stalled_stage span);
  List.iter (fun s -> Fmt.pf fmt "  %a@," pp_step s) span.steps

(* Frames retransmitted by the reliability layer: every transmission of
   the same (node, ep, seq) carries a fresh message id, so the branches
   of one logical frame are the mids sharing its key. *)
let retransmissions spans =
  let tbl : (int * int * int, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun span ->
      List.iter
        (fun step ->
          match step.ev with
          | Event.Frame_tx { node; ep; seq; mid; _ } when mid > 0 -> (
              let key = (node, ep, seq) in
              match Hashtbl.find_opt tbl key with
              | Some l -> if not (List.mem mid !l) then l := !l @ [ mid ]
              | None ->
                  Hashtbl.add tbl key (ref [ mid ]);
                  order := key :: !order)
          | _ -> ())
        span.steps)
    spans;
  List.rev !order
  |> List.filter_map (fun ((node, ep, seq) as key) ->
         match Hashtbl.find_opt tbl key with
         | Some l when List.length !l > 1 -> Some (node, ep, seq, !l)
         | _ -> None)

(* Chrome export with cross-machine flow arrows: each machine keeps its
   instant-event rows (metadata names from the Obs label), and every
   multi-step span additionally contributes tiny "X" slices (flow events
   must bind to an enclosing duration event) chained by s/t/f flow
   events sharing the span's mid as the flow id. *)
let flow_json span =
  let n = List.length span.steps in
  let slice s =
    Json.Obj
      [
        ("name", Json.String (stage_of s.ev));
        ("cat", Json.String "flipc.msg");
        ("ph", Json.String "X");
        ("ts", Json.Float (float_of_int (Vtime.to_ns s.ts) /. 1000.));
        ("dur", Json.Float 0.3);
        ("pid", Json.Int s.pid);
        ("tid", Json.Int (Event.node s.ev));
        ("args", Json.Obj (("mid", Json.Int span.mid) :: Event.args s.ev));
      ]
  in
  let flow i s =
    let ph = if i = 0 then "s" else if i = n - 1 then "f" else "t" in
    let base =
      [
        ("name", Json.String (Printf.sprintf "msg-%d" span.mid));
        ("cat", Json.String "flipc.flow");
        ("ph", Json.String ph);
        ("id", Json.Int span.mid);
        ("ts", Json.Float (float_of_int (Vtime.to_ns s.ts) /. 1000.));
        ("pid", Json.Int s.pid);
        ("tid", Json.Int (Event.node s.ev));
      ]
    in
    Json.Obj (if ph = "f" then base @ [ ("bp", Json.String "e") ] else base)
  in
  if n < 2 then []
  else
    List.concat (List.mapi (fun i s -> [ slice s; flow i s ]) span.steps)

let chrome_json_of obs_list =
  let instants =
    List.concat_map
      (fun o ->
        Tracer.chrome_events ~pid:(Obs.id o) ~process_name:(Obs.label o)
          (Obs.tracer o))
      obs_list
  in
  let flows = List.concat_map flow_json (spans obs_list) in
  Json.Obj
    [
      ("traceEvents", Json.List (instants @ flows));
      ("displayTimeUnit", Json.String "ns");
    ]
