type t = int

let null = 0
let is_null t = t = 0

let make ~node ~endpoint =
  if node < 0 || node >= 0x3FFF then invalid_arg "Address.make: bad node";
  if endpoint < 0 || endpoint > 0xFFFF then
    invalid_arg "Address.make: bad endpoint";
  ((node + 1) lsl 16) lor endpoint

let node t =
  if is_null t then invalid_arg "Address.node: null address";
  (t lsr 16) - 1

let endpoint t =
  if is_null t then invalid_arg "Address.endpoint: null address";
  t land 0xFFFF

let to_word t = t

let valid_word w = w >= 0 && w <= 0x3FFFFFFF

let of_word w =
  if not (valid_word w) then invalid_arg "Address.of_word: out of range";
  w

let equal = Int.equal

let pp fmt t =
  if is_null t then Fmt.string fmt "<null>"
  else Fmt.pf fmt "%d:%d" (node t) (endpoint t)
