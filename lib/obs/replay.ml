module Vtime = Flipc_sim.Vtime

type record = { r_ts : Vtime.t; r_pid : int; r_ev : Event.t }

type t = {
  meta : (string * Json.t) list;
  records : record list; (* file (= emission) order *)
  machines : (int * string) list; (* pid -> label, from the trailer *)
  summary : Json.t option;
}

let meta t = t.meta
let records t = t.records
let machines t = t.machines
let summary t = t.summary

let load path =
  match Codec.read_file path with
  | Error _ as e -> e
  | Ok d ->
      Ok
        {
          meta = d.Codec.d_meta;
          records =
            List.map
              (fun r ->
                {
                  r_ts = Vtime.ns r.Codec.c_ts;
                  r_pid = r.Codec.c_pid;
                  r_ev = r.Codec.c_ev;
                })
              d.Codec.d_records;
          machines = d.Codec.d_machines;
          summary = d.Codec.d_summary;
        }

let of_obs obs =
  let pid = Obs.id obs in
  {
    meta = [];
    records =
      List.map
        (fun (e : Tracer.entry) -> { r_ts = e.ts; r_pid = pid; r_ev = e.ev })
        (Tracer.to_list (Obs.tracer obs));
    machines = [ (pid, Obs.label obs) ];
    summary = None;
  }

let jsonl t =
  let header =
    Json.Obj
      [ ("flipc_trace", Json.Int Codec.format_version); ("meta", Json.Obj t.meta) ]
  in
  let record r =
    let fields =
      match Event.to_json r.r_ev with Json.Obj f -> f | j -> [ ("ev", j) ]
    in
    Json.Obj
      (("t", Json.Int (Vtime.to_ns r.r_ts)) :: ("pid", Json.Int r.r_pid) :: fields)
  in
  let trailer =
    Json.Obj
      (( "machines",
         Json.List
           (List.map
              (fun (pid, label) ->
                Json.Obj [ ("pid", Json.Int pid); ("label", Json.String label) ])
              t.machines) )
      :: (match t.summary with None -> [] | Some s -> [ ("summary", s) ]))
  in
  List.map Json.to_string ((header :: List.map record t.records) @ [ trailer ])

(* File order is global emission order; the stable re-sort by timestamp
   mirrors what [Causal.spans] does to live rings, so span construction
   sees the records in an identical order. *)
let steps t =
  List.map
    (fun r ->
      {
        Causal.ts = r.r_ts;
        pid = r.r_pid;
        machine =
          (match List.assoc_opt r.r_pid t.machines with
          | Some label -> label
          | None -> Printf.sprintf "flipc machine %d" r.r_pid);
        ev = r.r_ev;
      })
    t.records
  |> List.stable_sort (fun (a : Causal.step) b -> compare a.ts b.ts)

let spans t = Causal.spans_of_steps (steps t)
