(** The typed trace-event taxonomy.

    One constructor per interesting transition in a message's life (plus
    engine scheduling and fault-injection markers), replacing the old
    free-form string trace. Endpoint indices are node-global (the same
    indices {!Flipc.Address} carries), virtual timestamps are attached by
    {!Tracer}. The lifecycle events, in path order:

    [Send_enqueued] (application queued a buffer) → [Doorbell] (engine
    noticed the endpoint's doorbell) → [Engine_tx] (engine handed the
    image to the transport) → [Wire_rx] (image arrived at the destination
    engine) → [Deposit] (engine placed it in a posted buffer) →
    [Recv_dequeued] (application took it). [Drop] replaces [Deposit] when
    no buffer is posted or the message is refused.

    {b Causal message ids.} Every application send stamps a
    process-unique [mid] into the message's state word (see
    {!Flipc.Msg_buffer}); the lifecycle events above carry it, as do the
    reliability-layer frame events and fault-injection markers, so
    {!Causal} can stitch one message's full cross-machine path back
    together. [mid = 0] means "unstamped/unknown" — {!val:mid} maps it to
    [None]. *)

type drop_reason =
  | No_posted_buffer  (** optimistic discard: receiver had no buffer *)
  | Bad_destination  (** undeliverable or null destination *)
  | Corrupt_slot  (** application queued a bad buffer pointer *)
  | Corrupt_frame  (** frame checksum mismatch on receive: damaged in flight *)
  | Forbidden_destination  (** endpoint's destination restriction refused it *)

type fault_kind =
  | Fault_drop
  | Fault_duplicate
  | Fault_reorder
  | Fault_jitter
  | Fault_corrupt

type bulk_op = Bulk_put | Bulk_get

type t =
  | Send_enqueued of {
      node : int;
      ep : int;
      dst_node : int;
      dst_ep : int;
      mid : int;
    }
  | Doorbell of { node : int; ep : int }
      (** the engine observed this send endpoint's doorbell ring *)
  | Engine_tx of {
      node : int;
      ep : int;
      dst_node : int;
      dst_ep : int;
      mid : int;
    }
  | Wire_rx of { node : int; ep : int; mid : int }
  | Deposit of { node : int; ep : int; mid : int }
  | Recv_dequeued of { node : int; ep : int; mid : int }
  | Drop of { node : int; ep : int; mid : int; reason : drop_reason }
  | Frame_tx of {
      node : int;
      ep : int;
      seq : int;
      mid : int;
      retransmit : bool;
    }  (** {!Flipc_flow.Retrans_layer} put frame [seq] on the wire as
           message [mid], keyed on its send endpoint; retransmissions
           carry a fresh [mid], linked by [seq] *)
  | Frame_deliver of { node : int; ep : int; seq : int; mid : int }
      (** the receiver released frame [seq] (which arrived as message
          [mid]) to the application, in order; keyed on its receive
          endpoint *)
  | Ack_tx of { node : int; ep : int; cum : int; sacked : int }
      (** cumulative ack [cum] (+ [sacked] selective-ack bits) sent,
          keyed on the acknowledging side's receive endpoint *)
  | Credit_grant of { node : int; ep : int; count : int }
      (** {!Flipc_flow.Window_layer} receiver granted credit up to its
          cumulative consumed [count], keyed on its receive endpoint *)
  | Window_send of {
      node : int;
      ep : int;
      mid : int;
      sent : int;
      granted : int;
      window : int;
    }
      (** {!Flipc_flow.Window_layer} sender counters at the moment of a
          send, keyed on its send endpoint *)
  | Drops_read of { node : int; ep : int; count : int }
      (** the application read-and-reset [count] drops on [ep] *)
  | Engine_park of { node : int; idle : int }
  | Engine_wake of { node : int }
  | Fault of { node : int; kind : fault_kind; mid : int }
  | Note of { node : int; tag : string; detail : string }
      (** escape hatch for ad-hoc instrumentation *)
  | Kkt_call of { node : int; dst_node : int; id : int; mid : int }
      (** client [node] issued KKT call [id] (monotone per client) *)
  | Kkt_dispatch of { node : int; id : int; valid : bool; mid : int }
      (** server dispatched call [id]; [valid] = a handler was registered *)
  | Kkt_reply of { node : int; dst_node : int; id : int; mid : int }
  | Kkt_complete of { node : int; id : int; mid : int }
      (** the client's blocking call returned *)
  | Bulk_start of {
      node : int;
      dst_node : int;
      transfer : int;
      op : bulk_op;
      total : int;  (** transfer length in bytes *)
      mid : int;
    }
  | Bulk_chunk of { node : int; transfer : int; offset : int; len : int; mid : int }
      (** the data-receiving side accepted one fragment *)
  | Bulk_complete of { node : int; transfer : int; mid : int }
  | Bulk_cancel of { node : int; transfer : int; mid : int }
  | Alert_fired of { node : int; rule : string; detail : string }
      (** an {!Alert} rule tripped on a closed {!Series} window *)

val drop_reason_name : drop_reason -> string
val fault_kind_name : fault_kind -> string
val bulk_op_name : bulk_op -> string

(** Display identifier ([Note] events use their tag, retransmitted
    [Frame_tx] shows as "retransmit"). *)
val name : t -> string

(** Stable discriminator: payload-independent, one per constructor.
    This — not {!name} — is the ["k"] field of {!to_json}. *)
val kind : t -> string

(** The node the event happened on. *)
val node : t -> int

(** The causal message id the event carries, if stamped. *)
val mid : t -> int option

(** Structured payload for JSON export, deterministic field order. *)
val args : t -> (string * Json.t) list

(** Self-describing record: [{"k": kind, "node": n, ...fields}] — the
    rendering of a capture's event ({!Replay.jsonl}); captures themselves
    are binary ({!Codec}). *)
val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
