type drop_reason =
  | No_posted_buffer
  | Bad_destination
  | Corrupt_slot
  | Corrupt_frame
  | Forbidden_destination

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
    }
  | Frame_deliver of { node : int; ep : int; seq : int; mid : int }
  | Ack_tx of { node : int; ep : int; cum : int; sacked : int }
  | Credit_grant of { node : int; ep : int; count : int }
  | Window_send of {
      node : int;
      ep : int;
      mid : int;
      sent : int;
      granted : int;
      window : int;
    }
  | Drops_read of { node : int; ep : int; count : int }
  | Engine_park of { node : int; idle : int }
  | Engine_wake of { node : int }
  | Fault of { node : int; kind : fault_kind; mid : int }
  | Note of { node : int; tag : string; detail : string }
  | Kkt_call of { node : int; dst_node : int; id : int; mid : int }
  | Kkt_dispatch of { node : int; id : int; valid : bool; mid : int }
  | Kkt_reply of { node : int; dst_node : int; id : int; mid : int }
  | Kkt_complete of { node : int; id : int; mid : int }
  | Bulk_start of {
      node : int;
      dst_node : int;
      transfer : int;
      op : bulk_op;
      total : int;
      mid : int;
    }
  | Bulk_chunk of { node : int; transfer : int; offset : int; len : int; mid : int }
  | Bulk_complete of { node : int; transfer : int; mid : int }
  | Bulk_cancel of { node : int; transfer : int; mid : int }
  | Alert_fired of { node : int; rule : string; detail : string }

let drop_reason_name = function
  | No_posted_buffer -> "no_posted_buffer"
  | Bad_destination -> "bad_destination"
  | Corrupt_slot -> "corrupt_slot"
  | Corrupt_frame -> "corrupt_frame"
  | Forbidden_destination -> "forbidden_destination"

let fault_kind_name = function
  | Fault_drop -> "drop"
  | Fault_duplicate -> "duplicate"
  | Fault_reorder -> "reorder"
  | Fault_jitter -> "jitter"
  | Fault_corrupt -> "corrupt"

let bulk_op_name = function Bulk_put -> "put" | Bulk_get -> "get"

let name = function
  | Send_enqueued _ -> "send_enqueued"
  | Doorbell _ -> "doorbell"
  | Engine_tx _ -> "engine_tx"
  | Wire_rx _ -> "wire_rx"
  | Deposit _ -> "deposit"
  | Recv_dequeued _ -> "recv_dequeued"
  | Drop _ -> "drop"
  | Frame_tx { retransmit; _ } ->
      if retransmit then "retransmit" else "frame_tx"
  | Frame_deliver _ -> "frame_deliver"
  | Ack_tx _ -> "ack_tx"
  | Credit_grant _ -> "credit_grant"
  | Window_send _ -> "window_send"
  | Drops_read _ -> "drops_read"
  | Engine_park _ -> "engine_park"
  | Engine_wake _ -> "engine_wake"
  | Fault _ -> "fault"
  | Note { tag; _ } -> tag
  | Kkt_call _ -> "kkt_call"
  | Kkt_dispatch _ -> "kkt_dispatch"
  | Kkt_reply _ -> "kkt_reply"
  | Kkt_complete _ -> "kkt_complete"
  | Bulk_start _ -> "bulk_start"
  | Bulk_chunk _ -> "bulk_chunk"
  | Bulk_complete _ -> "bulk_complete"
  | Bulk_cancel _ -> "bulk_cancel"
  | Alert_fired { rule; _ } -> "alert:" ^ rule

(* Stable discriminator: unlike [name] it never depends on payload
   ([Frame_tx] is always "frame_tx", [Note] is always "note"), so
   rendered records and per-kind counters group by constructor. *)
let kind = function
  | Send_enqueued _ -> "send_enqueued"
  | Doorbell _ -> "doorbell"
  | Engine_tx _ -> "engine_tx"
  | Wire_rx _ -> "wire_rx"
  | Deposit _ -> "deposit"
  | Recv_dequeued _ -> "recv_dequeued"
  | Drop _ -> "drop"
  | Frame_tx _ -> "frame_tx"
  | Frame_deliver _ -> "frame_deliver"
  | Ack_tx _ -> "ack_tx"
  | Credit_grant _ -> "credit_grant"
  | Window_send _ -> "window_send"
  | Drops_read _ -> "drops_read"
  | Engine_park _ -> "engine_park"
  | Engine_wake _ -> "engine_wake"
  | Fault _ -> "fault"
  | Note _ -> "note"
  | Kkt_call _ -> "kkt_call"
  | Kkt_dispatch _ -> "kkt_dispatch"
  | Kkt_reply _ -> "kkt_reply"
  | Kkt_complete _ -> "kkt_complete"
  | Bulk_start _ -> "bulk_start"
  | Bulk_chunk _ -> "bulk_chunk"
  | Bulk_complete _ -> "bulk_complete"
  | Bulk_cancel _ -> "bulk_cancel"
  | Alert_fired _ -> "alert_fired"

let node = function
  | Send_enqueued { node; _ }
  | Doorbell { node; _ }
  | Engine_tx { node; _ }
  | Wire_rx { node; _ }
  | Deposit { node; _ }
  | Recv_dequeued { node; _ }
  | Drop { node; _ }
  | Frame_tx { node; _ }
  | Frame_deliver { node; _ }
  | Ack_tx { node; _ }
  | Credit_grant { node; _ }
  | Window_send { node; _ }
  | Drops_read { node; _ }
  | Engine_park { node; _ }
  | Engine_wake { node; _ }
  | Fault { node; _ }
  | Note { node; _ }
  | Kkt_call { node; _ }
  | Kkt_dispatch { node; _ }
  | Kkt_reply { node; _ }
  | Kkt_complete { node; _ }
  | Bulk_start { node; _ }
  | Bulk_chunk { node; _ }
  | Bulk_complete { node; _ }
  | Bulk_cancel { node; _ }
  | Alert_fired { node; _ } -> node

let mid = function
  | Send_enqueued { mid; _ }
  | Engine_tx { mid; _ }
  | Wire_rx { mid; _ }
  | Deposit { mid; _ }
  | Recv_dequeued { mid; _ }
  | Drop { mid; _ }
  | Frame_tx { mid; _ }
  | Frame_deliver { mid; _ }
  | Window_send { mid; _ }
  | Fault { mid; _ }
  | Kkt_call { mid; _ }
  | Kkt_dispatch { mid; _ }
  | Kkt_reply { mid; _ }
  | Kkt_complete { mid; _ }
  | Bulk_start { mid; _ }
  | Bulk_chunk { mid; _ }
  | Bulk_complete { mid; _ }
  | Bulk_cancel { mid; _ } ->
      if mid > 0 then Some mid else None
  | Doorbell _ | Ack_tx _ | Credit_grant _ | Drops_read _ | Engine_park _
  | Engine_wake _ | Note _ | Alert_fired _ ->
      None

let args = function
  | Send_enqueued { ep; dst_node; dst_ep; mid; _ }
  | Engine_tx { ep; dst_node; dst_ep; mid; _ } ->
      [
        ("ep", Json.Int ep);
        ("dst_node", Json.Int dst_node);
        ("dst_ep", Json.Int dst_ep);
        ("mid", Json.Int mid);
      ]
  | Doorbell { ep; _ } -> [ ("ep", Json.Int ep) ]
  | Wire_rx { ep; mid; _ } | Deposit { ep; mid; _ } | Recv_dequeued { ep; mid; _ }
    ->
      [ ("ep", Json.Int ep); ("mid", Json.Int mid) ]
  | Drop { ep; mid; reason; _ } ->
      [
        ("ep", Json.Int ep);
        ("mid", Json.Int mid);
        ("reason", Json.String (drop_reason_name reason));
      ]
  | Frame_tx { ep; seq; mid; retransmit; _ } ->
      [
        ("ep", Json.Int ep);
        ("seq", Json.Int seq);
        ("mid", Json.Int mid);
        ("retransmit", Json.Bool retransmit);
      ]
  | Frame_deliver { ep; seq; mid; _ } ->
      [ ("ep", Json.Int ep); ("seq", Json.Int seq); ("mid", Json.Int mid) ]
  | Ack_tx { ep; cum; sacked; _ } ->
      [ ("ep", Json.Int ep); ("cum", Json.Int cum); ("sacked", Json.Int sacked) ]
  | Credit_grant { ep; count; _ } ->
      [ ("ep", Json.Int ep); ("count", Json.Int count) ]
  | Window_send { ep; mid; sent; granted; window; _ } ->
      [
        ("ep", Json.Int ep);
        ("mid", Json.Int mid);
        ("sent", Json.Int sent);
        ("granted", Json.Int granted);
        ("window", Json.Int window);
      ]
  | Drops_read { ep; count; _ } ->
      [ ("ep", Json.Int ep); ("count", Json.Int count) ]
  | Engine_park { idle; _ } -> [ ("idle_iterations", Json.Int idle) ]
  | Engine_wake _ -> []
  | Fault { kind; mid; _ } ->
      [ ("kind", Json.String (fault_kind_name kind)); ("mid", Json.Int mid) ]
  | Note { detail; _ } -> [ ("detail", Json.String detail) ]
  | Kkt_call { dst_node; id; mid; _ } | Kkt_reply { dst_node; id; mid; _ } ->
      [
        ("dst_node", Json.Int dst_node);
        ("id", Json.Int id);
        ("mid", Json.Int mid);
      ]
  | Kkt_dispatch { id; valid; mid; _ } ->
      [ ("id", Json.Int id); ("valid", Json.Bool valid); ("mid", Json.Int mid) ]
  | Kkt_complete { id; mid; _ } ->
      [ ("id", Json.Int id); ("mid", Json.Int mid) ]
  | Bulk_start { dst_node; transfer; op; total; mid; _ } ->
      [
        ("dst_node", Json.Int dst_node);
        ("transfer", Json.Int transfer);
        ("op", Json.String (bulk_op_name op));
        ("total", Json.Int total);
        ("mid", Json.Int mid);
      ]
  | Bulk_chunk { transfer; offset; len; mid; _ } ->
      [
        ("transfer", Json.Int transfer);
        ("offset", Json.Int offset);
        ("len", Json.Int len);
        ("mid", Json.Int mid);
      ]
  | Bulk_complete { transfer; mid; _ } | Bulk_cancel { transfer; mid; _ } ->
      [ ("transfer", Json.Int transfer); ("mid", Json.Int mid) ]
  | Alert_fired { rule; detail; _ } ->
      [ ("rule", Json.String rule); ("detail", Json.String detail) ]

(* ------------------------------------------------------------------ *)
(* Self-describing trace records: kind + node + the variant's fields.  *)

let to_json ev =
  let fields =
    match ev with
    (* [args] drops the Note tag (it doubles as [name]); restore it. *)
    | Note { tag; detail; _ } ->
        [ ("tag", Json.String tag); ("detail", Json.String detail) ]
    | ev -> args ev
  in
  Json.Obj
    (("k", Json.String (kind ev)) :: ("node", Json.Int (node ev)) :: fields)

let pp fmt ev =
  Fmt.pf fmt "n%d %-14s" (node ev) (name ev);
  List.iter
    (fun (k, v) ->
      match v with
      | Json.Int i -> Fmt.pf fmt " %s=%d" k i
      | Json.String s -> Fmt.pf fmt " %s=%s" k s
      | v -> Fmt.pf fmt " %s=%s" k (Json.to_string v))
    (args ev)
