(** Causal message tracing: reconstruct one message's path across every
    captured machine.

    Every application send stamps a process-unique message id (mid) into
    the message (see {!Flipc.Msg_buffer}); the typed events along the
    path carry it. This module merges the event rings of several
    {!Obs.t} bundles, groups the mid-carrying events into per-message
    {e spans} (send → doorbell → engine tx → wire → engine rx → queue →
    recv, with fault and drop markers), and renders them as text or as
    linked Chrome trace flow-events.

    Doorbell events carry no mid — the engine observes one doorbell for
    a whole batch of releases — so they are bound to spans by interval:
    a doorbell on (node, ep) attaches to every message enqueued there
    whose [Engine_tx] has not yet been observed.

    Retransmissions by {!Flipc_flow.Retrans_layer} stamp a {e fresh} mid per
    wire traversal; the [Frame_tx] events link them by sequence number
    ({!retransmissions}). *)

type step = {
  ts : Flipc_sim.Vtime.t;
  pid : int;  (** originating {!Obs.id} *)
  machine : string;  (** originating {!Obs.label} *)
  ev : Event.t;
}

type span = { mid : int; steps : step list (** time order *) }

(** All spans reconstructible from these bundles' tracers, ordered by
    first appearance. *)
val spans : Obs.t list -> span list

(** Same grouping over an explicit time-ordered step list — the entry
    point for offline {!Replay} of captured traces. [spans obs_list] is
    [spans_of_steps] of the merged live rings. *)
val spans_of_steps : step list -> span list

val find : span list -> int -> span option

(** Short stage name of one event ("send", "engine_tx", "wire_rx", …). *)
val stage_of : Event.t -> string

(** What the message is waiting for (or how it ended), judged by the
    span's last event — the stage named in watchdog reports. *)
val stalled_stage : span -> string

val pp_step : Format.formatter -> step -> unit
val pp_span : Format.formatter -> span -> unit

(** Frames the reliability layer transmitted more than once:
    [(node, ep, seq, mids)] with one mid per wire traversal. *)
val retransmissions : span list -> (int * int * int * int list) list

(** Merged Chrome trace document — the one Chrome exporter: per-machine
    instant rows (named after each {!Obs.label}) plus cross-machine flow
    arrows for every multi-step span. *)
val chrome_json_of : Obs.t list -> Json.t
