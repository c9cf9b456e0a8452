(** Versioned binary trace codec: the one on-disk capture format.

    A binary capture is the magic string {!magic} followed by a version
    byte and then a stream of length-prefixed frames. Each frame body
    starts with a one-byte opcode: metadata (a JSON object of run
    fields), one event record, or the trailer (machine labels plus the
    optional run summary). Event frames carry the pid and a
    zigzag-varint timestamp {e delta} against the previous event frame,
    then a per-constructor tag byte and the variant's fields as zigzag
    varints (strings length-prefixed) in declaration order — ~7x
    smaller than the line {!Replay.jsonl} renders for it.

    {!Sink} writes this format and {!Replay.load} reads it, so every
    consumer of a capture (doctor, diff, tests) goes through this
    module. Decoding is strict: a missing {!magic}, a version mismatch,
    a truncated frame, an unknown opcode or event tag, or a varint
    running past the frame all produce [Error] naming the offending
    byte offset. *)

(** First bytes of every binary capture. *)
val magic : string

(** The binary format version written after {!magic}. *)
val format_version : int

(** One decoded event record: timestamp (ns), pid, event. *)
type record = { c_ts : int; c_pid : int; c_ev : Event.t }

(** {1 Frame-level primitives}

    Exposed so property tests can check encode∘decode = identity
    without going through a file. *)

(** [encode_event buf ~prev_ts ~ts ~pid ev] appends one event frame.
    [prev_ts] is the previous event frame's timestamp (0 for the
    first); the frame stores [ts - prev_ts] zigzag-encoded. *)
val encode_event : Buffer.t -> prev_ts:int -> ts:int -> pid:int -> Event.t -> unit

(** [decode_event s ~pos ~prev_ts] decodes the event frame starting at
    [pos], returning the record and the offset of the next frame. *)
val decode_event :
  string -> pos:int -> prev_ts:int -> (record * int, string) result

(** {1 Streaming encoder} *)

type encoder

(** [to_channel oc] writes the magic + version and returns an encoder. *)
val to_channel : out_channel -> encoder

(** The channel the encoder writes to (for the owner to close). *)
val channel : encoder -> out_channel

(** Write the run-metadata frame (free-form JSON fields). *)
val write_meta : encoder -> (string * Json.t) list -> unit

(** Append one event frame (timestamps are delta-encoded internally). *)
val write_event : encoder -> now:Flipc_sim.Vtime.t -> pid:int -> Event.t -> unit

(** Write the trailer frame: machine labels and the optional summary. *)
val write_trailer :
  encoder -> machines:(int * string) list -> summary:Json.t option -> unit

(** {1 Whole-file decoding} *)

type decoded = {
  d_meta : (string * Json.t) list;
  d_records : record list;  (** file (= emission) order *)
  d_machines : (int * string) list;
  d_summary : Json.t option;
}

(** [read_file path] decodes a whole binary capture. *)
val read_file : string -> (decoded, string) result
