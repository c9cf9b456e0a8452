module Engine = Flipc_sim.Engine

type t = {
  id : int;
  sim : Engine.t;
  metrics : Metrics.t;
  tracer : Tracer.t;
  mutable label : string;
  mutable watchers : (Flipc_sim.Vtime.t -> Event.t -> unit) list;
  mutable reporters : (Format.formatter -> unit) list;
}

let next_id = ref 0

(* Creation hooks: tooling (e.g. a trace sink behind a CLI `--capture`
   flag) registers one to be handed every bundle the process creates,
   however deep inside workload helpers. *)
let hooks : (int * (t -> unit)) list ref = ref []
let next_hook = ref 0

let on_create f =
  incr next_hook;
  let hid = !next_hook in
  hooks := !hooks @ [ (hid, f) ];
  fun () -> hooks := List.filter (fun (h, _) -> h <> hid) !hooks

let create ?(tracing = false) ?(trace_capacity = 65_536) ~sim () =
  let id = !next_id in
  incr next_id;
  let t =
    {
      id;
      sim;
      metrics = Metrics.create ();
      tracer = Tracer.create ~capacity:trace_capacity ~enabled:tracing ();
      label = Printf.sprintf "flipc machine %d" id;
      watchers = [];
      reporters = [];
    }
  in
  List.iter (fun (_, f) -> f t) !hooks;
  t

let id t = t.id
let sim t = t.sim
let metrics t = t.metrics
let tracer t = t.tracer
let now t = Engine.now t.sim
let label t = t.label
let set_label t s = t.label <- s

(* Watchers piggyback on the tracing gate: every emit site already asks
   [tracing] before building its event, so a registered watcher turns
   those same sites on without touching them. *)
let tracing t = Tracer.enabled t.tracer || t.watchers <> []

let add_watcher t f = t.watchers <- t.watchers @ [ f ]

let event t ev =
  let now = Engine.now t.sim in
  Tracer.emit t.tracer ~now ev;
  match t.watchers with
  | [] -> ()
  | ws -> List.iter (fun f -> f now ev) ws

let add_reporter t f = t.reporters <- t.reporters @ [ f ]
let report t fmt = List.iter (fun f -> f fmt) t.reporters
