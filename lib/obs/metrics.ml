module Summary = Flipc_stats.Summary
module Histogram = Flipc_stats.Histogram

type counter = { mutable c : int }
type gauge = { mutable g : float }

(* Histograms are log-bucketed sketches: constant storage, exact
   count/sum, quantiles within one bucket width (see {!Sketch}). *)
type histo = { sketch : Sketch.t }

type value =
  | Counter of counter
  | Gauge of gauge
  | Histo of histo
  | Probe of (unit -> float)

type t = { tbl : (string, value) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       name

let check_name name =
  if not (valid_name name) then
    invalid_arg
      (Printf.sprintf
         "Metrics: bad metric name %S (want dotted alphanumerics, e.g. \
          \"node0.engine.sends\")"
         name)

let find_or_add t name ~make ~cast =
  check_name name;
  match Hashtbl.find_opt t.tbl name with
  | Some v -> (
      match cast v with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered with another type"
               name))
  | None ->
      let x = make () in
      x

let counter t name =
  find_or_add t name
    ~cast:(function Counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let c = { c = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c)

let incr ?(by = 1) c = c.c <- c.c + by
let counter_value c = c.c

let gauge t name =
  find_or_add t name
    ~cast:(function Gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let g = { g = 0. } in
      Hashtbl.replace t.tbl name (Gauge g);
      g)

let set g v = g.g <- v
let gauge_value g = g.g

let histogram t name =
  find_or_add t name
    ~cast:(function Histo h -> Some h | _ -> None)
    ~make:(fun () ->
      let h = { sketch = Sketch.create () } in
      Hashtbl.replace t.tbl name (Histo h);
      h)

let observe h v = Sketch.observe h.sketch v
let histo_count h = Sketch.count h.sketch
let histo_sum h = Sketch.sum h.sketch
let histo_quantile h p = Sketch.quantile h.sketch p
let histo_summary h = Sketch.summary h.sketch

let probe t name f =
  check_name name;
  (* Last registration wins: probes are re-registered when a component is
     rebuilt (e.g. a fresh Retrans_layer on the same endpoints). *)
  Hashtbl.replace t.tbl name (Probe f)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type snap_value =
  | Snap_counter of int
  | Snap_gauge of float
  | Snap_histogram of { count : int; sum : float; summary : Summary.t option }

type snapshot = (string * snap_value) list

let snapshot t =
  Hashtbl.fold
    (fun name v acc ->
      let sv =
        match v with
        | Counter c -> Snap_counter c.c
        | Gauge g -> Snap_gauge g.g
        | Probe f -> Snap_gauge (f ())
        | Histo h ->
            Snap_histogram
              {
                count = Sketch.count h.sketch;
                sum = Sketch.sum h.sketch;
                summary = Sketch.summary h.sketch;
              }
      in
      (name, sv) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_snapshot fmt snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Snap_counter c -> Fmt.pf fmt "%-40s %d@." name c
      | Snap_gauge g ->
          if Float.is_integer g && Float.abs g < 1e15 then
            Fmt.pf fmt "%-40s %.0f@." name g
          else Fmt.pf fmt "%-40s %g@." name g
      | Snap_histogram { count; summary; _ } -> (
          match summary with
          | None -> Fmt.pf fmt "%-40s count=%d@." name count
          | Some s ->
              Fmt.pf fmt
                "%-40s count=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f@."
                name count s.Summary.mean s.Summary.p50 s.Summary.p95
                s.Summary.p99 s.Summary.max))
    snap

let summary_fields ?(suffix = "") (s : Summary.t) =
  ("n", Json.Int s.Summary.n)
  :: List.map
       (fun (k, v) -> (k ^ suffix, Json.Float v))
       [
         ("mean", s.Summary.mean);
         ("stddev", s.Summary.stddev);
         ("min", s.Summary.min);
         ("max", s.Summary.max);
         ("p50", s.Summary.p50);
         ("p95", s.Summary.p95);
         ("p99", s.Summary.p99);
       ]

let summary_json s = Json.Obj (summary_fields s)

let snapshot_json snap =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Snap_counter c -> Json.Int c
           | Snap_gauge g ->
               if Float.is_integer g && Float.abs g < 1e15 then
                 Json.Int (int_of_float g)
               else Json.Float g
           | Snap_histogram { count; sum; summary } ->
               Json.Obj
                 (("count", Json.Int count)
                  :: ("sum", Json.Float sum)
                  ::
                  (match summary with
                  | None -> []
                  | Some s -> [ ("summary", summary_json s) ])) ))
       snap)
