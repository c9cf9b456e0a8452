type t = { data : Bytes.t }

let create ~size =
  if size <= 0 then invalid_arg "Shared_mem.create: size must be positive";
  { data = Bytes.make size '\000' }

let size t = Bytes.length t.data

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Out of line, so the test below is all an access inlines. An address
   that is both out of bounds and misaligned is reported out of bounds. *)
let bad_word t addr =
  if addr < 0 || addr > Bytes.length t.data - 4 then
    invalid_arg (Printf.sprintf "Shared_mem: address %d out of bounds" addr)
  else invalid_arg (Printf.sprintf "Shared_mem: address %d misaligned" addr)
[@@inline never]

(* One test admits exactly the aligned words inside the memory, so the
   access after it needs no check of its own. *)
let[@inline] check_word t addr =
  if not (addr land 3 = 0 && addr >= 0 && addr <= Bytes.length t.data - 4)
  then bad_word t addr

let[@inline] load32 t addr =
  check_word t addr;
  let v = get32u t.data addr in
  if Sys.big_endian then swap32 v else v

let[@inline] store32 t addr v =
  check_word t addr;
  set32u t.data addr (if Sys.big_endian then swap32 v else v)

let load_int t addr =
  let v = Int32.to_int (load32 t addr) in
  if v < 0 then invalid_arg "Shared_mem.load_int: negative word";
  v

let store_int t addr v =
  if v < 0 || v > 0x3FFFFFFF then
    invalid_arg "Shared_mem.store_int: out of range";
  store32 t addr (Int32.of_int v)

let check_range t pos len =
  if len < 0 || pos < 0 || pos + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Shared_mem: range [%d, %d) out of bounds" pos (pos + len))

let read_bytes t ~pos ~len =
  check_range t pos len;
  Bytes.sub t.data pos len

let write_bytes t ~pos b =
  check_range t pos (Bytes.length b);
  Bytes.blit b 0 t.data pos (Bytes.length b)

let blit t ~src ~dst ~len =
  check_range t src len;
  check_range t dst len;
  Bytes.blit t.data src t.data dst len

let fill t ~pos ~len c =
  check_range t pos len;
  Bytes.fill t.data pos len c
