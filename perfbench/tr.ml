(* Span names and the tracer's clocks.

   Every span the benchmark records has a fixed name index: the eight
   {!Flipc.Api} message operations, then try_send/recv/pump for each of
   the three {!Flipc_flow.Transport.S} layers. The virtual clock and the
   step counter read whichever machine is running now (the firehose
   ladder builds one per rung); the host clock is the monotonic clock. *)

module Spans = Perfbench_core.Spans
module Sim = Flipc_sim.Engine

let api_ops =
  [|
    "send";
    "send_burst";
    "receive";
    "receive_burst";
    "post_receive";
    "post_receive_burst";
    "reclaim";
    "reclaim_burst";
  |]

let api_send = 0
let api_send_burst = 1
let api_receive = 2
let api_receive_burst = 3
let api_post_receive = 4
let api_post_receive_burst = 5
let api_reclaim = 6
let api_reclaim_burst = 7
let flow_layers = [| "window"; "retrans"; "channel" |]
let flow_ops = [| "try_send"; "recv"; "pump" |]
let window = 0
let retrans = 1
let channel = 2
let try_send = 0
let recv = 1
let pump = 2
let flow layer op = Array.length api_ops + (layer * Array.length flow_ops) + op

let names =
  Array.append
    (Array.map (fun op -> "api." ^ op) api_ops)
    (Array.concat
       (Array.to_list
          (Array.map
             (fun l -> Array.map (fun op -> "flow." ^ l ^ "." ^ op) flow_ops)
             flow_layers)))

let sim : Sim.t option ref = ref None
let set_sim s = sim := Some s
let vt () = match !sim with Some s -> Sim.now s | None -> 0
let steps () = match !sim with Some s -> Sim.steps s | None -> 0

let create ~cap =
  Spans.create ~names ~cap
    { Spans.vt; host = Perfbench_core.Clock.mono_ns; steps }

(* One actor per simulated process, or none when tracing is off. *)
let actor tracer = Option.map Spans.actor tracer
