(** Message buffers inside the communication buffer.

    Every buffer is [Config.message_bytes] long and 32-byte aligned; FLIPC
    internalizes all buffers so applications never face alignment rules.
    The first 8 bytes are FLIPC's: word 0 holds the destination address
    (written by the application library on send; carried across the wire),
    word 1 holds the processing state. The remaining bytes are application
    payload.

    The state word is written by whichever side currently owns the buffer
    (the queue cursors serialize ownership), never concurrently:
    the application resets it to [idle] when queueing, the engine sets
    [complete] when it has sent from or received into the buffer.

    {b Causal message ids.} Bits 2.. of the state word carry a 28-bit
    process-unique message id, stamped by {!Api} in the same store that
    resets the state on send — the id therefore travels inside the wire
    image at zero extra memory-system cost and survives into the
    receiver's buffer, where delivery events read it back. Id 0 means
    "unstamped". *)

module Mem_port = Flipc_memsim.Mem_port

type state = Idle | Complete

val state_to_word : state -> int
val state_of_word : int -> state option

(** Largest representable message id (28 bits). *)
val max_msg_id : int

(** {1 Timed accessors (application or engine side)} *)

val set_dest : Mem_port.t -> Layout.t -> buf:int -> Address.t -> unit
val dest : Mem_port.t -> Layout.t -> buf:int -> Address.t

(** [set_state] rewrites the state bits, preserving any stamped id. *)
val set_state : Mem_port.t -> Layout.t -> buf:int -> state -> unit

(** [set_state_and_id] writes state and message id in one store (the
    send-path stamp). *)
val set_state_and_id :
  Mem_port.t -> Layout.t -> buf:int -> mid:int -> state -> unit

val state : Mem_port.t -> Layout.t -> buf:int -> state option

(** [write_payload port layout ~buf ?at data] writes [data] into the
    payload area at byte offset [at] (default 0). Raises
    [Invalid_argument] if it would overrun the payload. *)
val write_payload :
  Mem_port.t -> Layout.t -> buf:int -> ?at:int -> Bytes.t -> unit

(** [read_payload port layout ~buf ?at len] reads [len] payload bytes. *)
val read_payload : Mem_port.t -> Layout.t -> buf:int -> ?at:int -> int -> Bytes.t

(** {1 Wire image}

    The engine DMAs the whole buffer (header + payload) to and from the
    network, so the destination address travels in the message itself —
    the "8 bytes of each message for internal addressing and
    synchronization". *)

(** [(pos, len)] of the full buffer for DMA. *)
val region : Layout.t -> buf:int -> int * int

(** [dest_of_image bytes] decodes word 0 of a wire image; a word that is
    not a valid address (a frame damaged on the wire) decodes to
    {!Address.null}. *)
val dest_of_image : Bytes.t -> Address.t

(** [msg_id_of_image bytes] decodes the stamped message id from word 1 of
    a wire image (0 when short or unstamped). *)
val msg_id_of_image : Bytes.t -> int

(** {1 Frame checksum}

    With {!Config.t.frame_checksum} on, the last {!Config.checksum_bytes}
    of the message carry an FNV-1a digest ({!Checksum}) of everything
    before them — header words included. {!Config.payload_bytes} already
    excludes the trailer, so applications cannot overwrite it. *)

val checksum_enabled : Layout.t -> bool

(** [store_checksum port layout ~buf] digests the buffer's image and
    stores the trailer; timed (block read + hash instructions + one
    store). Call after the header words and payload are final. *)
val store_checksum : Mem_port.t -> Layout.t -> buf:int -> unit

(** The trailer value carried in a wire image. *)
val checksum_of_image : Bytes.t -> int

(** [image_checksum_ok bytes] recomputes the digest over the image and
    compares it with the trailer; [false] for damaged or short frames. *)
val image_checksum_ok : Bytes.t -> bool

(** {1 Untimed introspection (tracing, tests)} *)

val peek_state : Mem_port.t -> Layout.t -> buf:int -> int

(** The stamped message id of a local buffer (untimed). *)
val msg_id : Mem_port.t -> Layout.t -> buf:int -> int
