(* Slot [i] is [keys.(i)], [seqs.(i)], [vals.(i)]; [seqs] numbers pushes so
   that equal keys leave in push order. The arrays start empty and are
   first filled with the first pushed value, so no dummy value is needed. *)
type 'v t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'v array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }
let size h = h.size
let is_empty h = h.size = 0

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty";
  h.keys.(0)

let grow h filler =
  let cap = max 64 (2 * h.size) in
  let keys = Array.make cap 0 and seqs = Array.make cap 0 in
  let vals = Array.make cap filler in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let move h ~src ~dst =
  h.keys.(dst) <- h.keys.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.vals.(dst) <- h.vals.(src)

(* Move the hole at [i] up past every parent with a larger key; returns
   where the new entry goes. A new entry's seq exceeds every queued one,
   so an equal key stops the climb. *)
let rec hole_up h key i =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if key < h.keys.(parent) then begin
      move h ~src:parent ~dst:i;
      hole_up h key parent
    end
    else i

let before h i ~key ~seq =
  let k = h.keys.(i) in
  k < key || (k = key && h.seqs.(i) < seq)

(* Move the hole at [i] down past every child ordered before
   [(key, seq)]; returns where that entry goes. *)
let rec hole_down h ~key ~seq i =
  let left = (2 * i) + 1 in
  if left >= h.size then i
  else
    let right = left + 1 in
    let child =
      if right < h.size && before h right ~key:h.keys.(left) ~seq:h.seqs.(left)
      then right
      else left
    in
    if before h child ~key ~seq then begin
      move h ~src:child ~dst:i;
      hole_down h ~key ~seq child
    end
    else i

let push h key v =
  if h.size = Array.length h.keys then grow h v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = hole_up h key h.size in
  h.size <- h.size + 1;
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.vals.(i) <- v

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let top = h.vals.(0) in
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then begin
    let key = h.keys.(last) and seq = h.seqs.(last) in
    let i = hole_down h ~key ~seq 0 in
    move h ~src:last ~dst:i
  end;
  top

(* The new entry takes the root's place and sinks: one sift where [pop]
   then [push] would take two. *)
let replace_top h key v =
  if h.size = 0 then invalid_arg "Heap.replace_top: empty";
  let top = h.vals.(0) in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = hole_down h ~key ~seq 0 in
  h.keys.(i) <- key;
  h.seqs.(i) <- seq;
  h.vals.(i) <- v;
  top

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.vals <- [||];
  h.size <- 0
