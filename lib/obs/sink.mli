(** Streaming trace sink: persistent flight-data capture.

    Spills typed events to a {!Codec} binary capture as they happen, so
    a failure that out-lives the in-memory ring can still be diagnosed
    offline ({!Replay} + [flipc doctor --replay]). The CLI wires one up
    behind [--capture out.ftrace] on every subcommand, attaching it to
    each machine the run creates via {!Obs.on_create}.

    {b File format} ({!Codec}): the magic and version, then
    length-prefixed frames —
    - a metadata frame: free-form run metadata;
    - one frame per event: virtual timestamp (delta-coded, exact), pid
      ({!Obs.id}) and the {!Event.t}, in emission order;
    - a trailer frame: machine labels (only final at close) and an
      optional run summary a replaying doctor echoes back.

    {!Replay.jsonl} renders a capture as one JSON document per line,
    several times the size of the binary file.

    Attaching first spills the machine's current ring contents, then
    streams every subsequent event through a watcher — so attaching at
    creation captures everything regardless of ring wrap, and a mid-run
    attach captures the retained tail plus the whole future. *)

type t

(** [create ~path ()] opens [path] and writes the header and the
    metadata frame. *)
val create : ?meta:(string * Json.t) list -> path:string -> unit -> t

(** [attach t obs] spills [obs]'s retained ring, then streams its
    future events (registers a watcher, making {!Obs.tracing} true).
    Idempotent per bundle. *)
val attach : t -> Obs.t -> unit

(** [record t ~now ~pid ev] writes one event record directly. *)
val record : t -> now:Flipc_sim.Vtime.t -> pid:int -> Event.t -> unit

(** [set_summary t j] attaches a run summary to the trailer. *)
val set_summary : t -> Json.t -> unit

val events_written : t -> int
val path : t -> string

(** Write the trailer and close the file. Further events are ignored. *)
val close : t -> unit
