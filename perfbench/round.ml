(* One round: a workload's whole fixed virtual run for a seed, on fresh
   machines, with its host cost split into set-up and timed region.

   Set-up runs from the start of a machine's construction until the
   timed region opens: building machines, allocating and connecting
   endpoints, posting buffers, and any in-round warm-up traffic. The
   timed region runs from that boundary, taken inside the simulation at
   a fixed virtual instant, to the workload's last delivery. A workload
   that builds several machines (one per ladder rung) sums both parts. *)

module Clock = Perfbench_core.Clock
module Tally = Perfbench_core.Tally

type mark = {
  cpu : int;
  words : float;  (** allocated words so far: minor + major - promoted *)
  minor_gcs : int;
  major_gcs : int;
}

let mark () =
  let s = Gc.quick_stat () in
  {
    cpu = Clock.cpu_ns ();
    words = Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

type meter = {
  mutable start : mark;
  mutable boundary : mark;
  mutable setup_ns : int;
  mutable timed_ns : int;
  mutable alloc_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let meter () =
  let m = mark () in
  {
    start = m;
    boundary = m;
    setup_ns = 0;
    timed_ns = 0;
    alloc_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
  }

(* Before a machine is built. *)
let start t = t.start <- mark ()

(* When the timed region opens. *)
let open_timed t =
  let b = mark () in
  t.setup_ns <- t.setup_ns + (b.cpu - t.start.cpu);
  t.boundary <- b

(* At the last delivery. *)
let close_timed t =
  let e = mark () in
  let b = t.boundary in
  t.timed_ns <- t.timed_ns + (e.cpu - b.cpu);
  t.alloc_words <- t.alloc_words +. (e.words -. b.words);
  t.minor_gcs <- t.minor_gcs + (e.minor_gcs - b.minor_gcs);
  t.major_gcs <- t.major_gcs + (e.major_gcs - b.major_gcs)

type t = {
  tally : Tally.t;
  msgs : int;  (** simulated messages delivered in the timed region *)
  latency_ns : int array;
      (** ascending virtual latency samples; [max_int] marks a request
          that failed, which misses any latency limit *)
  vt_delivered_per_s : float;
  window_ns : int;  (** virtual length of the timed region(s) *)
  meter : meter;
  counters : Counters.t;  (** library counters over the timed region *)
  extra : (string * float) list;
      (** workload-specific virtual figures, by metric name *)
  notes : string list;  (** human-readable detail lines *)
}

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Wiring must finish before the timed region opens at a fixed instant;
   a workload that overruns it is mis-sized, not slow. *)
let wait_until sim t =
  let now = Flipc_sim.Engine.now sim in
  if now > t then failwith (Printf.sprintf "set-up ran to %d ns, past %d" now t);
  Flipc_sim.Engine.delay (t - now)

(* A growable int array for samples whose count is not known ahead. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let contents v = Array.sub v.a 0 v.n

(* Everything virtual in a round, hashed: two rounds of one seed must
   agree on it bit for bit, traced or not. *)
let fingerprint r =
  let b = Buffer.create 4096 in
  let int n = Buffer.add_string b (string_of_int n); Buffer.add_char b ' ' in
  let float x = int (Int64.to_int (Int64.bits_of_float x)) in
  Array.iter int r.latency_ns;
  Array.iter int r.counters;
  List.iter (fun (k, v) -> Buffer.add_string b k; float v) r.extra;
  int r.msgs;
  int r.window_ns;
  float r.vt_delivered_per_s;
  let t = r.tally in
  List.iter int
    [
      t.attempted; t.shed; t.drops; t.backlog; t.mismatches; t.lost; t.errors;
      t.stalls; t.violations;
    ];
  Digest.to_hex (Digest.string (Buffer.contents b))
