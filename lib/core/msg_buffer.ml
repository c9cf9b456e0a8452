module Mem_port = Flipc_memsim.Mem_port

type state = Idle | Complete

let state_to_word = function Idle -> 0 | Complete -> 2

(* The state word's two low bits hold the state; the bits above carry the
   28-bit causal message id stamped at send (0 = unstamped). Decoding
   masks the id off so stamped words still parse. *)
let state_of_word w =
  match w land 3 with 0 -> Some Idle | 2 -> Some Complete | _ -> None

let max_msg_id = 0xFFF_FFFF
let mid_of_word w = (w lsr 2) land max_msg_id

let set_dest port layout ~buf addr =
  Mem_port.store port
    (Layout.buffer_addr layout buf + Layout.buf_dest_off)
    (Address.to_word addr)

let dest port layout ~buf =
  Address.of_word
    (Mem_port.load port (Layout.buffer_addr layout buf + Layout.buf_dest_off))

(* [set_state] preserves the message id already in the word: the engine
   marking a deposited buffer [Complete] must not erase the sender's
   stamp. The extra read is untimed ([peek]), so the store cost is
   unchanged. *)
let set_state port layout ~buf s =
  let addr = Layout.buffer_addr layout buf + Layout.buf_state_off in
  let old = Mem_port.peek port addr in
  Mem_port.store port addr (old land lnot 3 lor state_to_word s)

let set_state_and_id port layout ~buf ~mid s =
  Mem_port.store port
    (Layout.buffer_addr layout buf + Layout.buf_state_off)
    (((mid land max_msg_id) lsl 2) lor state_to_word s)

let msg_id port layout ~buf =
  mid_of_word
    (Mem_port.peek port (Layout.buffer_addr layout buf + Layout.buf_state_off))

let state port layout ~buf =
  state_of_word
    (Mem_port.load port (Layout.buffer_addr layout buf + Layout.buf_state_off))

let payload_bytes layout = Config.payload_bytes (Layout.config layout)

let check_payload_range layout ~at ~len =
  if at < 0 || len < 0 || at + len > payload_bytes layout then
    invalid_arg "Msg_buffer: payload range overruns fixed message size"

let write_payload port layout ~buf ?(at = 0) data =
  check_payload_range layout ~at ~len:(Bytes.length data);
  let pos = Layout.buffer_addr layout buf + Layout.buf_payload_off + at in
  Mem_port.write_bytes port ~pos data

let read_payload port layout ~buf ?(at = 0) len =
  check_payload_range layout ~at ~len;
  let pos = Layout.buffer_addr layout buf + Layout.buf_payload_off + at in
  Mem_port.read_bytes port ~pos ~len

let region layout ~buf =
  ( Layout.buffer_addr layout buf,
    (Layout.config layout).Config.message_bytes )

(* Frame checksum trailer: the last [Config.checksum_bytes] of the
   message hold an FNV-1a digest of everything before them (header words
   included, so a bit flip in the destination or state word is caught the
   same as one in the payload). [payload_bytes] already excludes the
   trailer when the feature is on, so the application cannot write over
   it. *)

let checksum_enabled layout = (Layout.config layout).Config.frame_checksum

let checksum_off layout =
  (Layout.config layout).Config.message_bytes - Config.checksum_bytes

(* Timed like the send path it runs on: one block read of the covered
   bytes (charged per cache line), an instruction charge for the hash
   arithmetic (word-at-a-time), and the trailer store. *)
let store_checksum port layout ~buf =
  let base = Layout.buffer_addr layout buf in
  let len = checksum_off layout in
  let image = Mem_port.read_bytes port ~pos:base ~len in
  Mem_port.instr port (len / 4);
  Mem_port.store port (base + len) (Checksum.fold30 (Checksum.of_bytes image))

(* Read the trailer as the full unsigned 32-bit word. The stored digest
   is [Checksum.fold30]-folded so a clean trailer's top two bits are
   always zero (the 30-bit [Shared_mem.store_int] word invariant), but
   the wire image itself is raw bytes — corruption can flip those bits,
   and masking them here would make such damage undetectable. *)
let checksum_of_image bytes =
  let len = Bytes.length bytes in
  if len < Config.checksum_bytes then
    invalid_arg "Msg_buffer.checksum_of_image: short"
  else
    Int32.to_int (Bytes.get_int32_le bytes (len - Config.checksum_bytes))
    land 0xFFFF_FFFF

let image_checksum_ok bytes =
  let len = Bytes.length bytes in
  len >= Config.checksum_bytes
  && Checksum.fold30 (Checksum.of_bytes ~len:(len - Config.checksum_bytes) bytes)
     = checksum_of_image bytes

(* Decoded before the checksum is checked (for the arrival stamp and the
   shard route), so a damaged word must not raise: it reads as null, which
   every caller already treats as unroutable. *)
let dest_of_image bytes =
  if Bytes.length bytes < 4 then invalid_arg "Msg_buffer.dest_of_image: short";
  let w = Int32.to_int (Bytes.get_int32_le bytes 0) in
  if Address.valid_word w then Address.of_word w else Address.null

let msg_id_of_image bytes =
  if Bytes.length bytes < 8 then 0
  else mid_of_word (Int32.to_int (Bytes.get_int32_le bytes 4) land 0x3FFF_FFFF)

let peek_state port layout ~buf =
  Mem_port.peek port (Layout.buffer_addr layout buf + Layout.buf_state_off)
