type 'a t = {
  capacity : int;
  mutable slots : 'a option array; (* empty until the first push *)
  mutable head : int; (* index of the oldest element *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  { capacity; slots = [||]; head = 0; len = 0; dropped = 0 }

let capacity t = t.capacity
let length t = t.len
let dropped t = t.dropped
let is_empty t = t.len = 0

let push t x =
  let cap = t.capacity in
  if Array.length t.slots = 0 then t.slots <- Array.make cap None;
  if t.len = cap then begin
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.slots.((t.head + t.len) mod cap) <- Some x;
    t.len <- t.len + 1
  end

let iter t f =
  let cap = t.capacity in
  for i = 0 to t.len - 1 do
    match t.slots.((t.head + i) mod cap) with
    | Some x -> f x
    | None -> assert false
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun x -> acc := f !acc x);
  !acc

let to_list t = List.rev (fold t ~init:[] (fun acc x -> x :: acc))

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0
