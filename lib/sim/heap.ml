(* Heap position [i] holds the entry [keys.(i)], [seqs.(i)], whose value is
   [vals.(slots.(i))]; [seqs] numbers pushes so that equal keys leave in
   push order. A sift moves only the three int arrays: a value stays in
   its slot from push to pop, so queueing one costs one write barrier.
   [slots] is a permutation of every slot, and its positions from [size]
   up are the stack of free ones. The arrays start empty and are first
   filled with the first pushed value, so no dummy value is needed. *)
type 'v t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'v array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0; next_seq = 0 }

let size h = h.size
let[@inline] is_empty h = h.size = 0
let empty name = invalid_arg name [@@inline never]

let[@inline] min_key h =
  if h.size = 0 then empty "Heap.min_key: empty";
  h.keys.(0)

(* Called only when every slot is in use; the new slots go on the free
   stack, numbered as their positions. *)
let grow h filler =
  let cap = max 64 (2 * h.size) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id and vals = Array.make cap filler in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.slots 0 slots 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.vals <- vals

(* The sifts take the int arrays themselves, typed, so every comparison
   is an int one, and index them unchecked: every position they touch is
   at most [size], and [push] grows the arrays first when [size] reaches
   their length. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

(* Move the hole at [i] up past every parent with a larger key; returns
   where the new entry goes. A new entry's seq exceeds every queued one,
   so an equal key stops the climb. *)
let rec hole_up (keys : int array) (seqs : int array) (slots : int array)
    (key : int) i =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    let k = get keys parent in
    if key < k then begin
      set keys i k;
      set seqs i (get seqs parent);
      set slots i (get slots parent);
      hole_up keys seqs slots key parent
    end
    else i

(* Move the hole at [i] down past every child ordered before
   [(key, seq)]; returns where that entry goes. *)
let rec hole_down (keys : int array) (seqs : int array) (slots : int array)
    size (key : int) (seq : int) i =
  let left = (2 * i) + 1 in
  if left >= size then i
  else
    let right = left + 1 in
    let child =
      if right < size then
        let kl = get keys left and kr = get keys right in
        if kr < kl || (kr = kl && get seqs right < get seqs left) then right
        else left
      else left
    in
    let k = get keys child in
    if k < key || (k = key && get seqs child < seq) then begin
      set keys i k;
      set seqs i (get seqs child);
      set slots i (get slots child);
      hole_down keys seqs slots size key seq child
    end
    else i

let push h key v =
  if h.size = Array.length h.keys then grow h v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let n = h.size in
  let slot = h.slots.(n) in
  h.vals.(slot) <- v;
  let i = hole_up h.keys h.seqs h.slots key n in
  h.size <- n + 1;
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.slots.(i) <- slot

let pop h =
  if h.size = 0 then empty "Heap.pop: empty";
  let slot = h.slots.(0) in
  let top = h.vals.(slot) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let key = h.keys.(last) and seq = h.seqs.(last) in
    let moved = h.slots.(last) in
    let i = hole_down h.keys h.seqs h.slots last key seq 0 in
    h.keys.(i) <- key;
    h.seqs.(i) <- seq;
    h.slots.(i) <- moved
  end;
  h.slots.(last) <- slot;
  top

(* The new entry takes the root's place and slot, and sinks: one sift
   where [pop] then [push] would take two. *)
let replace_top h key v =
  if h.size = 0 then empty "Heap.replace_top: empty";
  let slot = h.slots.(0) in
  let top = h.vals.(slot) in
  h.vals.(slot) <- v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = hole_down h.keys h.seqs h.slots h.size key seq 0 in
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.slots.(i) <- slot;
  top

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.slots <- [||];
  h.vals <- [||];
  h.size <- 0
