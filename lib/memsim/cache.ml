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

(* Way [w] of set [s] is slot [(s * assoc) + w] of [tags], [states] and
   [last_use]. An absent way holds tag -1 and [Invalid], and a present
   one a non-negative line address, so a lookup compares tags only. The
   set count is a power of two, so a line's set is a shift and a mask. *)
type t = {
  name : string;
  line_bytes : int;
  line_shift : int;
  set_mask : int;
  assoc : int;
  tags : int array;
  states : state array;
  last_use : int array;
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

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create ?(size_bytes = 16 * 1024) ?(line_bytes = 32) ?(assoc = 2) ~name () =
  if not (is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not a multiple of line_bytes * assoc";
  let n_sets = size_bytes / (line_bytes * assoc) in
  if not (is_power_of_two n_sets) then
    invalid_arg "Cache.create: set count must be a positive power of two";
  let slots = n_sets * assoc in
  {
    name;
    line_bytes;
    line_shift = log2 line_bytes;
    set_mask = n_sets - 1;
    assoc;
    tags = Array.make slots (-1);
    states = Array.make slots Invalid;
    last_use = Array.make slots 0;
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

(* The first slot of [line]'s set. *)
let[@inline] base t line = ((line lsr t.line_shift) land t.set_mask) * t.assoc

(* The slot in [i, stop) whose tag is [line], or -1. Top level and
   int-typed, so a lookup allocates no closure and compares ints. *)
let rec scan (tags : int array) (line : int) i stop =
  if i = stop then -1
  else if tags.(i) = line then i
  else scan tags line (i + 1) stop

(* The slot holding [line], or -1. No present way holds a negative tag,
   so a line of -1 can only match an absent way, whose state is
   [Invalid]. *)
let[@inline] slot t line =
  let b = base t line in
  scan t.tags line b (b + t.assoc)

let[@inline] touch t i =
  t.clock <- t.clock + 1;
  t.last_use.(i) <- t.clock

let find t ~line =
  let i = slot t line in
  if i < 0 then Invalid
  else begin
    touch t i;
    t.states.(i)
  end

let set_state t ~line state =
  if state = Invalid then invalid_arg "Cache.set_state: use invalidate";
  let i = slot t line in
  if i < 0 || line < 0 then invalid_arg "Cache.set_state: line not present";
  touch t i;
  t.states.(i) <- state

(* Prefer the first invalid way of the set at [b]; otherwise the least
   recently used one, the lowest on a tie. *)
let victim t b =
  let best = ref b in
  for i = b + 1 to b + t.assoc - 1 do
    if
      t.states.(!best) <> Invalid
      && (t.states.(i) = Invalid || t.last_use.(i) < t.last_use.(!best))
    then best := i
  done;
  !best

let insert t ~line state =
  if state = Invalid then invalid_arg "Cache.insert: Invalid state";
  if line < 0 then invalid_arg "Cache.insert: negative line";
  let b = base t line in
  let i = scan t.tags line b (b + t.assoc) in
  if i >= 0 then begin
    touch t i;
    t.states.(i) <- state;
    None
  end
  else begin
    let v = victim t b in
    let prior = t.states.(v) in
    let evicted =
      if prior = Invalid then None
      else begin
        t.stats.evictions <- t.stats.evictions + 1;
        if prior = Modified then t.stats.writebacks <- t.stats.writebacks + 1;
        Some (t.tags.(v), prior)
      end
    in
    t.tags.(v) <- line;
    t.states.(v) <- state;
    touch t v;
    evicted
  end

let invalidate t ~line =
  let i = slot t line in
  if i < 0 then Invalid
  else begin
    let prior = t.states.(i) in
    t.states.(i) <- Invalid;
    t.tags.(i) <- -1;
    prior
  end

let flush t =
  let dirty = ref 0 in
  for i = 0 to Array.length t.tags - 1 do
    if t.states.(i) = Modified then incr dirty;
    t.states.(i) <- Invalid;
    t.tags.(i) <- -1
  done;
  !dirty
