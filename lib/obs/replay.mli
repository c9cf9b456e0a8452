(** Offline trace replay: decode a {!Sink} capture back into typed
    events and drive the live diagnosis machinery on it.

    [flipc doctor --replay out.ftrace] uses this to reproduce a live
    run's report from a file alone: {!steps} feeds
    {!Causal.spans_of_steps} for span reconstruction, and the records
    feed a detached {!Monitor} ({!Monitor.create}/{!Monitor.feed}) for
    the full rule catalogue — same spans, same violations, same
    stalled-stage verdicts as the run that wrote the capture.

    A capture has one format, the {!Codec} binary frames; {!jsonl} is
    its human-readable rendering ([flipc trace --replay]). *)

type record = { r_ts : Flipc_sim.Vtime.t; r_pid : int; r_ev : Event.t }
type t

(** [load path] decodes a capture. [Error] names the offending byte
    offset; a missing magic (for example a JSONL file) or a version
    mismatch is an error. *)
val load : string -> (t, string) result

(** [of_obs obs] views a live bundle's retained ring as a capture: its
    records, its label in the machine table, no metadata or summary. *)
val of_obs : Obs.t -> t

val meta : t -> (string * Json.t) list

(** Event records in file (= emission) order. *)
val records : t -> record list

(** [pid -> label] from the trailer (empty if the capture was cut off
    before close). *)
val machines : t -> (int * string) list

(** The run summary the capturing command stored, if any. *)
val summary : t -> Json.t option

(** The capture rendered as JSON lines:
    - a header, [{"flipc_trace":<version>,"meta":{...}}];
    - one record per event, [{"t":<ns>,"pid":<obs id>,"k":<kind>,...}]
      ({!Event.to_json} behind the timestamp and pid);
    - a trailer, [{"machines":[{"pid":..,"label":..}],"summary":...}]
      (the summary only when one was stored). *)
val jsonl : t -> string list

(** Records as causal steps (machine labels resolved), time-ordered the
    same way {!Causal.spans} orders live rings. *)
val steps : t -> Causal.step list

(** [Causal.spans_of_steps (steps t)]. *)
val spans : t -> Causal.span list
