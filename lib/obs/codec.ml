module Vtime = Flipc_sim.Vtime

let magic = "FTRC"
let format_version = 1

(* Frame opcodes (first body byte). *)
let op_meta = 0x01
let op_event = 0x02
let op_trailer = 0x03

type record = { c_ts : int; c_pid : int; c_ev : Event.t }

(* ------------------------------------------------------------------ *)
(* Primitive writers: LEB128 varints over OCaml's native int, zigzag   *)
(* for anything that can be negative (timestamp deltas, ep = -1).      *)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let put_varint buf n =
  let n = ref n in
  let fin = ref false in
  while not !fin do
    let b = !n land 0x7f in
    (* Logical shift: the 63-bit pattern of a zigzagged max_int still
       terminates. *)
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      fin := true
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_int buf n = put_varint buf (zigzag n)
let put_byte buf b = Buffer.add_char buf (Char.chr (b land 0xff))
let put_bool buf b = put_byte buf (if b then 1 else 0)

let put_str buf s =
  put_varint buf (String.length s);
  Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Primitive readers. Decoding is strict: running past the end, an     *)
(* overlong varint, or a bad enum byte raise [Bad] with the offset.    *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let get_byte s pos =
  if !pos >= String.length s then bad "truncated frame at byte %d" !pos;
  let c = Char.code s.[!pos] in
  incr pos;
  c

let get_varint s pos =
  let rec go shift acc groups =
    if groups > 9 then bad "overlong varint at byte %d" !pos;
    let b = get_byte s pos in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc (groups + 1)
  in
  go 0 0 1

let get_int s pos = unzigzag (get_varint s pos)

let get_str s pos =
  let len = get_varint s pos in
  if len < 0 || !pos + len > String.length s then
    bad "truncated string at byte %d" !pos;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let get_bool s pos =
  match get_byte s pos with
  | 0 -> false
  | 1 -> true
  | b -> bad "bad bool byte 0x%02x at %d" b (!pos - 1)

(* ------------------------------------------------------------------ *)
(* Event bodies: one tag byte per constructor, fields in declaration   *)
(* order. Tag values are part of the format — append-only.             *)

let drop_reason_byte = function
  | Event.No_posted_buffer -> 0
  | Event.Bad_destination -> 1
  | Event.Corrupt_slot -> 2
  | Event.Corrupt_frame -> 3
  | Event.Forbidden_destination -> 4

let drop_reason_of_byte pos = function
  | 0 -> Event.No_posted_buffer
  | 1 -> Event.Bad_destination
  | 2 -> Event.Corrupt_slot
  | 3 -> Event.Corrupt_frame
  | 4 -> Event.Forbidden_destination
  | b -> bad "bad drop reason 0x%02x at %d" b (pos - 1)

let fault_kind_byte = function
  | Event.Fault_drop -> 0
  | Event.Fault_duplicate -> 1
  | Event.Fault_reorder -> 2
  | Event.Fault_jitter -> 3
  | Event.Fault_corrupt -> 4

let fault_kind_of_byte pos = function
  | 0 -> Event.Fault_drop
  | 1 -> Event.Fault_duplicate
  | 2 -> Event.Fault_reorder
  | 3 -> Event.Fault_jitter
  | 4 -> Event.Fault_corrupt
  | b -> bad "bad fault kind 0x%02x at %d" b (pos - 1)

let bulk_op_byte = function Event.Bulk_put -> 0 | Event.Bulk_get -> 1

let bulk_op_of_byte pos = function
  | 0 -> Event.Bulk_put
  | 1 -> Event.Bulk_get
  | b -> bad "bad bulk op 0x%02x at %d" b (pos - 1)

let encode_ev buf ev =
  let tag t = put_byte buf t in
  let i n = put_int buf n in
  match ev with
  | Event.Send_enqueued { node; ep; dst_node; dst_ep; mid } ->
      tag 0; i node; i ep; i dst_node; i dst_ep; i mid
  | Event.Doorbell { node; ep } -> tag 1; i node; i ep
  | Event.Engine_tx { node; ep; dst_node; dst_ep; mid } ->
      tag 2; i node; i ep; i dst_node; i dst_ep; i mid
  | Event.Wire_rx { node; ep; mid } -> tag 3; i node; i ep; i mid
  | Event.Deposit { node; ep; mid } -> tag 4; i node; i ep; i mid
  | Event.Recv_dequeued { node; ep; mid } -> tag 5; i node; i ep; i mid
  | Event.Drop { node; ep; mid; reason } ->
      tag 6; i node; i ep; i mid; put_byte buf (drop_reason_byte reason)
  | Event.Frame_tx { node; ep; seq; mid; retransmit } ->
      tag 7; i node; i ep; i seq; i mid; put_bool buf retransmit
  | Event.Frame_deliver { node; ep; seq; mid } ->
      tag 8; i node; i ep; i seq; i mid
  | Event.Ack_tx { node; ep; cum; sacked } -> tag 9; i node; i ep; i cum; i sacked
  | Event.Credit_grant { node; ep; count } -> tag 10; i node; i ep; i count
  | Event.Window_send { node; ep; mid; sent; granted; window } ->
      tag 11; i node; i ep; i mid; i sent; i granted; i window
  | Event.Drops_read { node; ep; count } -> tag 12; i node; i ep; i count
  | Event.Engine_park { node; idle } -> tag 13; i node; i idle
  | Event.Engine_wake { node } -> tag 14; i node
  | Event.Fault { node; kind; mid } ->
      tag 15; i node; put_byte buf (fault_kind_byte kind); i mid
  | Event.Note { node; tag = t; detail } ->
      tag 16; i node; put_str buf t; put_str buf detail
  | Event.Kkt_call { node; dst_node; id; mid } ->
      tag 17; i node; i dst_node; i id; i mid
  | Event.Kkt_dispatch { node; id; valid; mid } ->
      tag 18; i node; i id; put_bool buf valid; i mid
  | Event.Kkt_reply { node; dst_node; id; mid } ->
      tag 19; i node; i dst_node; i id; i mid
  | Event.Kkt_complete { node; id; mid } -> tag 20; i node; i id; i mid
  | Event.Bulk_start { node; dst_node; transfer; op; total; mid } ->
      tag 21; i node; i dst_node; i transfer;
      put_byte buf (bulk_op_byte op); i total; i mid
  | Event.Bulk_chunk { node; transfer; offset; len; mid } ->
      tag 22; i node; i transfer; i offset; i len; i mid
  | Event.Bulk_complete { node; transfer; mid } -> tag 23; i node; i transfer; i mid
  | Event.Bulk_cancel { node; transfer; mid } -> tag 24; i node; i transfer; i mid
  | Event.Alert_fired { node; rule; detail } ->
      tag 25; i node; put_str buf rule; put_str buf detail

let decode_ev s pos =
  let i () = get_int s pos in
  match get_byte s pos with
  | 0 ->
      let node = i () in let ep = i () in let dst_node = i () in
      let dst_ep = i () in let mid = i () in
      Event.Send_enqueued { node; ep; dst_node; dst_ep; mid }
  | 1 ->
      let node = i () in let ep = i () in
      Event.Doorbell { node; ep }
  | 2 ->
      let node = i () in let ep = i () in let dst_node = i () in
      let dst_ep = i () in let mid = i () in
      Event.Engine_tx { node; ep; dst_node; dst_ep; mid }
  | 3 ->
      let node = i () in let ep = i () in let mid = i () in
      Event.Wire_rx { node; ep; mid }
  | 4 ->
      let node = i () in let ep = i () in let mid = i () in
      Event.Deposit { node; ep; mid }
  | 5 ->
      let node = i () in let ep = i () in let mid = i () in
      Event.Recv_dequeued { node; ep; mid }
  | 6 ->
      let node = i () in let ep = i () in let mid = i () in
      let reason = drop_reason_of_byte !pos (get_byte s pos) in
      Event.Drop { node; ep; mid; reason }
  | 7 ->
      let node = i () in let ep = i () in let seq = i () in
      let mid = i () in let retransmit = get_bool s pos in
      Event.Frame_tx { node; ep; seq; mid; retransmit }
  | 8 ->
      let node = i () in let ep = i () in let seq = i () in let mid = i () in
      Event.Frame_deliver { node; ep; seq; mid }
  | 9 ->
      let node = i () in let ep = i () in let cum = i () in let sacked = i () in
      Event.Ack_tx { node; ep; cum; sacked }
  | 10 ->
      let node = i () in let ep = i () in let count = i () in
      Event.Credit_grant { node; ep; count }
  | 11 ->
      let node = i () in let ep = i () in let mid = i () in
      let sent = i () in let granted = i () in let window = i () in
      Event.Window_send { node; ep; mid; sent; granted; window }
  | 12 ->
      let node = i () in let ep = i () in let count = i () in
      Event.Drops_read { node; ep; count }
  | 13 ->
      let node = i () in let idle = i () in
      Event.Engine_park { node; idle }
  | 14 ->
      let node = i () in
      Event.Engine_wake { node }
  | 15 ->
      let node = i () in
      let kind = fault_kind_of_byte !pos (get_byte s pos) in
      let mid = i () in
      Event.Fault { node; kind; mid }
  | 16 ->
      let node = i () in let tag = get_str s pos in let detail = get_str s pos in
      Event.Note { node; tag; detail }
  | 17 ->
      let node = i () in let dst_node = i () in let id = i () in let mid = i () in
      Event.Kkt_call { node; dst_node; id; mid }
  | 18 ->
      let node = i () in let id = i () in let valid = get_bool s pos in
      let mid = i () in
      Event.Kkt_dispatch { node; id; valid; mid }
  | 19 ->
      let node = i () in let dst_node = i () in let id = i () in let mid = i () in
      Event.Kkt_reply { node; dst_node; id; mid }
  | 20 ->
      let node = i () in let id = i () in let mid = i () in
      Event.Kkt_complete { node; id; mid }
  | 21 ->
      let node = i () in let dst_node = i () in let transfer = i () in
      let op = bulk_op_of_byte !pos (get_byte s pos) in
      let total = i () in let mid = i () in
      Event.Bulk_start { node; dst_node; transfer; op; total; mid }
  | 22 ->
      let node = i () in let transfer = i () in let offset = i () in
      let len = i () in let mid = i () in
      Event.Bulk_chunk { node; transfer; offset; len; mid }
  | 23 ->
      let node = i () in let transfer = i () in let mid = i () in
      Event.Bulk_complete { node; transfer; mid }
  | 24 ->
      let node = i () in let transfer = i () in let mid = i () in
      Event.Bulk_cancel { node; transfer; mid }
  | 25 ->
      let node = i () in let rule = get_str s pos in let detail = get_str s pos in
      Event.Alert_fired { node; rule; detail }
  | t -> bad "unknown event tag 0x%02x at %d" t (!pos - 1)

(* ------------------------------------------------------------------ *)
(* Frames: varint body length, then the body (opcode first).           *)

let add_frame buf body =
  put_varint buf (Buffer.length body);
  Buffer.add_buffer buf body

let encode_event buf ~prev_ts ~ts ~pid ev =
  let body = Buffer.create 32 in
  put_byte body op_event;
  put_varint body pid;
  put_int body (ts - prev_ts);
  encode_ev body ev;
  add_frame buf body

(* Reads the frame at [pos]; returns the body string, the opcode
   position offset inside the file, and the next frame's offset. *)
let read_frame s pos =
  let len = get_varint s pos in
  if len <= 0 || !pos + len > String.length s then
    bad "truncated frame at byte %d (len %d)" !pos len;
  let body = String.sub s !pos len in
  let next = !pos + len in
  pos := next;
  (body, next)

let decode_event_body body ~prev_ts =
  let bpos = ref 0 in
  (match get_byte body bpos with
  | b when b = op_event -> ()
  | b -> bad "expected event frame, got opcode 0x%02x" b);
  let pid = get_varint body bpos in
  let dt = get_int body bpos in
  let ev = decode_ev body bpos in
  if !bpos <> String.length body then
    bad "trailing bytes in event frame (%d of %d consumed)" !bpos
      (String.length body);
  { c_ts = prev_ts + dt; c_pid = pid; c_ev = ev }

let decode_event s ~pos ~prev_ts =
  let p = ref pos in
  match
    let body, next = read_frame s p in
    (decode_event_body body ~prev_ts, next)
  with
  | r -> Ok r
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Streaming encoder.                                                  *)

type encoder = {
  oc : out_channel;
  scratch : Buffer.t;
  mutable e_prev_ts : int;
}

let to_channel oc =
  output_string oc magic;
  output_char oc (Char.chr format_version);
  { oc; scratch = Buffer.create 64; e_prev_ts = 0 }

let channel e = e.oc

let flush_scratch e =
  Buffer.output_buffer e.oc e.scratch;
  Buffer.clear e.scratch

let write_meta e meta =
  let body = Buffer.create 64 in
  put_byte body op_meta;
  put_str body (Json.to_string (Json.Obj meta));
  add_frame e.scratch body;
  flush_scratch e

let write_event e ~now ~pid ev =
  let ts = Vtime.to_ns now in
  encode_event e.scratch ~prev_ts:e.e_prev_ts ~ts ~pid ev;
  e.e_prev_ts <- ts;
  flush_scratch e

let write_trailer e ~machines ~summary =
  let body = Buffer.create 64 in
  put_byte body op_trailer;
  put_varint body (List.length machines);
  List.iter
    (fun (pid, label) ->
      put_varint body pid;
      put_str body label)
    machines;
  (match summary with
  | None -> put_bool body false
  | Some s ->
      put_bool body true;
      put_str body (Json.to_string s));
  add_frame e.scratch body;
  flush_scratch e

(* ------------------------------------------------------------------ *)
(* Whole-file decoding.                                                *)

type decoded = {
  d_meta : (string * Json.t) list;
  d_records : record list;
  d_machines : (int * string) list;
  d_summary : Json.t option;
}

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_json_field what s =
  match Json.of_string s with
  | Ok j -> j
  | Error e -> bad "bad %s json: %s" what e

let read_file path =
  match read_all path with
  | exception Sys_error msg -> Error msg
  | s -> (
      match
        let n = String.length s in
        let mlen = String.length magic in
        if n < mlen + 1 || String.sub s 0 mlen <> magic then
          bad "not a binary flipc trace (missing %S magic)" magic;
        let version = Char.code s.[mlen] in
        if version <> format_version then
          bad "unsupported binary trace version %d (want %d)" version
            format_version;
        let pos = ref (mlen + 1) in
        let meta = ref [] in
        let records = ref [] in
        let machines = ref [] in
        let summary = ref None in
        let prev_ts = ref 0 in
        while !pos < n do
          let body, _next = read_frame s pos in
          let bpos = ref 0 in
          match get_byte body bpos with
          | b when b = op_meta -> (
              match parse_json_field "meta" (get_str body bpos) with
              | Json.Obj fields -> meta := fields
              | _ -> bad "meta frame is not an object")
          | b when b = op_event ->
              let r = decode_event_body body ~prev_ts:!prev_ts in
              prev_ts := r.c_ts;
              records := r :: !records
          | b when b = op_trailer ->
              let count = get_varint body bpos in
              let ms = ref [] in
              for _ = 1 to count do
                let pid = get_varint body bpos in
                let label = get_str body bpos in
                ms := (pid, label) :: !ms
              done;
              machines := List.rev !ms;
              if get_bool body bpos then
                summary := Some (parse_json_field "summary" (get_str body bpos))
          | b -> bad "unknown frame opcode 0x%02x" b
        done;
        {
          d_meta = !meta;
          d_records = List.rev !records;
          d_machines = !machines;
          d_summary = !summary;
        }
      with
      | d -> Ok d
      | exception Bad msg -> Error msg)
