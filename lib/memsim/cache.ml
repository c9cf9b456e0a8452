type state = Invalid | Shared | Exclusive | Modified

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations_received : int;
  mutable invalidations_caused : int;
  mutable writebacks : int;
  mutable evictions : int;
  mutable locked_rmws : int;
}

type way = { mutable tag : int; mutable state : state; mutable last_use : int }

type t = {
  name : string;
  line_bytes : int;
  sets : way array array;
  mutable clock : int;
  stats : stats;
}

let fresh_stats () =
  {
    hits = 0;
    misses = 0;
    invalidations_received = 0;
    invalidations_caused = 0;
    writebacks = 0;
    evictions = 0;
    locked_rmws = 0;
  }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(size_bytes = 16 * 1024) ?(line_bytes = 32) ?(assoc = 2) ~name () =
  if not (is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line_bytes * assoc";
  let n_sets = size_bytes / (line_bytes * assoc) in
  let make_way _ = { tag = -1; state = Invalid; last_use = 0 } in
  {
    name;
    line_bytes;
    sets = Array.init n_sets (fun _ -> Array.init assoc make_way);
    clock = 0;
    stats = fresh_stats ();
  }

let name t = t.name
let line_bytes t = t.line_bytes
let line_addr t addr = addr land lnot (t.line_bytes - 1)
let stats t = t.stats

let reset_stats t =
  let s = t.stats in
  s.hits <- 0;
  s.misses <- 0;
  s.invalidations_received <- 0;
  s.invalidations_caused <- 0;
  s.writebacks <- 0;
  s.evictions <- 0;
  s.locked_rmws <- 0

let set_of t line = t.sets.((line / t.line_bytes) mod Array.length t.sets)

(* The index of the way holding [line] in [set], or -1. *)
let rec way_index set line i =
  if i >= Array.length set then -1
  else
    let way = set.(i) in
    match way.state with
    | Invalid -> way_index set line (i + 1)
    | Shared | Exclusive | Modified ->
        if way.tag = line then i else way_index set line (i + 1)

let touch t way =
  t.clock <- t.clock + 1;
  way.last_use <- t.clock

let find t ~line =
  let set = set_of t line in
  let i = way_index set line 0 in
  if i < 0 then Invalid
  else begin
    let way = set.(i) in
    touch t way;
    way.state
  end

let set_state t ~line state =
  if state = Invalid then invalid_arg "Cache.set_state: use invalidate";
  let set = set_of t line in
  let i = way_index set line 0 in
  if i < 0 then invalid_arg "Cache.set_state: line not present";
  touch t set.(i);
  set.(i).state <- state

(* Prefer an invalid way; otherwise the least recently used one. *)
let victim set =
  let best = ref 0 in
  for i = 1 to Array.length set - 1 do
    let b = set.(!best) and w = set.(i) in
    if b.state <> Invalid && (w.state = Invalid || w.last_use < b.last_use)
    then best := i
  done;
  set.(!best)

let insert t ~line state =
  if state = Invalid then invalid_arg "Cache.insert: Invalid state";
  let set = set_of t line in
  let i = way_index set line 0 in
  if i >= 0 then begin
    touch t set.(i);
    set.(i).state <- state;
    None
  end
  else begin
    let way = victim set in
    let evicted =
      if way.state = Invalid then None
      else begin
        t.stats.evictions <- t.stats.evictions + 1;
        if way.state = Modified then t.stats.writebacks <- t.stats.writebacks + 1;
        Some (way.tag, way.state)
      end
    in
    way.tag <- line;
    way.state <- state;
    touch t way;
    evicted
  end

let invalidate t ~line =
  let set = set_of t line in
  let i = way_index set line 0 in
  if i < 0 then Invalid
  else begin
    let way = set.(i) in
    let prior = way.state in
    way.state <- Invalid;
    way.tag <- -1;
    prior
  end

let flush t =
  let dirty = ref 0 in
  Array.iter
    (fun set ->
      Array.iter
        (fun way ->
          if way.state = Modified then incr dirty;
          way.state <- Invalid;
          way.tag <- -1)
        set)
    t.sets;
  !dirty
