module Vtime = Flipc_sim.Vtime

type entry = { ts : Vtime.t; ev : Event.t }

type t = { mutable enabled : bool; ring : entry Ring.t }

let create ?(capacity = 65_536) ?(enabled = false) () =
  { enabled; ring = Ring.create ~capacity }

let enable t = t.enabled <- true
let disable t = t.enabled <- false
let enabled t = t.enabled

let emit t ~now ev = if t.enabled then Ring.push t.ring { ts = now; ev }

let length t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let to_list t = Ring.to_list t.ring
let clear t = Ring.clear t.ring

let pp fmt t =
  Ring.iter t.ring (fun e ->
      Fmt.pf fmt "[%a] %a@." Vtime.pp e.ts Event.pp e.ev)

(* Chrome trace_event format: instant events ("ph":"i", thread scope),
   timestamps in (fractional) microseconds, one pid per machine and one
   tid per node so chrome://tracing / Perfetto shows a row per node. *)
let chrome_event ~pid e =
  Json.Obj
    [
      ("name", Json.String (Event.name e.ev));
      ("cat", Json.String "flipc");
      ("ph", Json.String "i");
      ("s", Json.String "t");
      ("ts", Json.Float (float_of_int (Vtime.to_ns e.ts) /. 1000.));
      ("pid", Json.Int pid);
      ("tid", Json.Int (Event.node e.ev));
      ("args", Json.Obj (Event.args e.ev));
    ]

let chrome_metadata ~pid ~process_name nodes =
  Json.Obj
    [
      ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("args", Json.Obj [ ("name", Json.String process_name) ]);
    ]
  :: List.map
       (fun node ->
         Json.Obj
           [
             ("name", Json.String "thread_name");
             ("ph", Json.String "M");
             ("pid", Json.Int pid);
             ("tid", Json.Int node);
             ("args", Json.Obj [ ("name", Json.String (Fmt.str "node %d" node)) ]);
           ])
       nodes

let chrome_events ?(pid = 0) ?process_name t =
  let nodes =
    Ring.fold t.ring ~init:[] (fun acc e ->
        let n = Event.node e.ev in
        if List.mem n acc then acc else n :: acc)
    |> List.sort Int.compare
  in
  let events =
    List.rev (Ring.fold t.ring ~init:[] (fun acc e -> chrome_event ~pid e :: acc))
  in
  let process_name =
    match process_name with
    | Some n -> n
    | None -> Fmt.str "flipc machine %d" pid
  in
  chrome_metadata ~pid ~process_name nodes @ events
