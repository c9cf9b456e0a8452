(** Minimal JSON document builder.

    Everything the observability layer exports (metric snapshots, Chrome
    traces, bench result files) goes through this one deterministic
    serializer: fields render in the order given, floats as plain JSON
    numbers ([NaN]/[infinity] degrade to [null]), so identical runs
    produce byte-identical files. {!of_string} is the inverse, used by
    {!Replay} to read trace captures back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. *)
val to_string : t -> string

(** [to_file path t] writes the compact rendering plus a newline to
    [path], replacing any previous contents. *)
val to_file : string -> t -> unit

(** [of_string s] parses one JSON document. Numeric literals without a
    fraction or exponent become [Int]; the rest become [Float]. *)
val of_string : string -> (t, string) result

(** [member key doc] looks up [key] in an [Obj] ([None] otherwise). *)
val member : string -> t -> t option

val to_int : t -> int option
val to_str : t -> string option
