(* Frames on the base transport carry a one-byte tag:
     tag 0: data [0x00 | seq int32 LE | application payload]
     tag 1: ack  [0x01 | cum int32 LE | SACK bitmap int64 LE]
   Sequence numbers start at 1 per direction. Both acknowledgement
   fields are monotone descriptions of receiver state (the receiver
   never gives a frame back), so any later ack supersedes a lost one. *)

module Api = Flipc.Api
module Event = Flipc_obs.Event
module Site = Channel_transport

type mode = Selective_repeat | Go_back_n

type config = {
  window : int;
  rto_ns : int;
  max_rto_ns : int;
  ack_every : int;
  max_retries : int;
  mode : mode;
}

let default_config =
  {
    window = 8;
    rto_ns = 1_000_000;
    max_rto_ns = 8_000_000;
    ack_every = 1;
    max_retries = 30;
    mode = Selective_repeat;
  }

let sack_width = 64
let tag_data = '\000'
let tag_ack = '\001'
let data_header = 5
let ack_bytes = 13

let validate c =
  if c.window < 1 then invalid_arg "Retrans_layer: window < 1";
  if c.window > sack_width then
    invalid_arg "Retrans_layer: window exceeds SACK bitmap width";
  if c.rto_ns < 1 || c.max_rto_ns < c.rto_ns then
    invalid_arg "Retrans_layer: bad timeout bounds";
  if c.ack_every < 1 then invalid_arg "Retrans_layer: ack_every < 1";
  if c.max_retries < 1 then invalid_arg "Retrans_layer: max_retries < 1"

let popcount64 bits =
  let n = ref 0 in
  for i = 0 to 63 do
    if Int64.logand bits (Int64.shift_left 1L i) <> 0L then incr n
  done;
  !n

module Make (T : Transport.S) = struct
  (* An in-flight frame awaiting acknowledgement. [sacked]: the receiver
     reported holding it out of order (selective repeat only).
     [retransmitted] excludes it from RTT sampling (Karn's rule: an ack
     for it could belong to either transmission). *)
  type pending = {
    seq : int;
    frame : Bytes.t; (* the encoded data frame, resent as is *)
    sent_at : int;
    mutable retries : int;
    mutable sacked : bool;
    mutable retransmitted : bool;
  }

  type t = {
    base : T.t;
    cfg : config;
    site : Site.site option;
    (* sender direction *)
    inflight : pending Queue.t;
    mutable next_seq : int;
    mutable s_acked : int;
    mutable timer : int; (* virtual time of the last protocol progress *)
    mutable rto_cur : int;
    mutable srtt : int; (* smoothed RTT, ns; 0 until the first sample *)
    mutable rttvar : int;
    mutable rtt_samples : int;
    mutable s_retransmits : int;
    mutable s_backpressure : int;
    (* receiver direction *)
    rxq : Bytes.t Queue.t; (* in-order, ready for the application *)
    ooo : (int, Bytes.t) Hashtbl.t;
    ooo_mid : (int, int) Hashtbl.t; (* each held frame's message id *)
    mutable expected : int;
    mutable pending_ack : int;
    mutable anomalies : int; (* duplicates/gaps since the last ack *)
    mutable last_ack_at : int;
    mutable ack_due : bool; (* an ack hit backpressure; retry *)
    mutable r_delivered : int;
    mutable r_duplicates : int;
    mutable r_reordered : int;
    mutable r_ooo_buffered : int;
    mutable r_acks_sent : int;
    mutable r_reacks_suppressed : int;
    mutable closed : bool;
  }

  let capacity t = T.capacity t.base - data_header
  let now t = T.now t.base
  let idle t = T.idle t.base

  let create base ?(config = default_config) ?site () =
    validate config;
    let t =
      {
        base;
        cfg = config;
        site;
        inflight = Queue.create ();
        next_seq = 1;
        s_acked = 0;
        timer = T.now base;
        rto_cur = config.rto_ns;
        srtt = 0;
        rttvar = 0;
        rtt_samples = 0;
        s_retransmits = 0;
        s_backpressure = 0;
        rxq = Queue.create ();
        ooo = Hashtbl.create 16;
        ooo_mid = Hashtbl.create 16;
        expected = 0;
        pending_ack = 0;
        anomalies = 0;
        last_ack_at = T.now base;
        ack_due = false;
        r_delivered = 0;
        r_duplicates = 0;
        r_reordered = 0;
        r_ooo_buffered = 0;
        r_acks_sent = 0;
        r_reacks_suppressed = 0;
        closed = false;
      }
    in
    Option.iter
      (fun s ->
        Site.register_probes s ~layer:"retrans" s.Site.tx_ep
          [
            ("retransmits", fun () -> t.s_retransmits);
            ("acked", fun () -> t.s_acked);
            ("inflight", fun () -> Queue.length t.inflight);
            ("rto_ns", fun () -> t.rto_cur);
            ("srtt_ns", fun () -> t.srtt);
            ("rttvar_ns", fun () -> t.rttvar);
            ("backpressure", fun () -> t.s_backpressure);
          ];
        Site.register_probes s ~layer:"retrans" s.Site.rx_ep
          [
            ("delivered", fun () -> t.r_delivered);
            ("duplicates", fun () -> t.r_duplicates);
            ("reordered", fun () -> t.r_reordered);
            ("acks_sent", fun () -> t.r_acks_sent);
            ("ooo_buffered", fun () -> t.r_ooo_buffered);
            ("ooo_held", fun () -> Hashtbl.length t.ooo);
            ("reacks_suppressed", fun () -> t.r_reacks_suppressed);
          ])
      site;
    t

  (* Bail out of the pump loop on a terminal base-transport error. *)
  exception Terminal of Transport.error

  let ( !! ) = function Ok v -> v | Error e -> raise (Terminal e)

  (* Each wire traversal is a distinct FLIPC message, so the event
     records the seq <-> mid correlation (retransmissions of one seq
     carry different mids). *)
  let trace_frame_tx t ~seq ~retransmit =
    match t.site with
    | None -> ()
    | Some s ->
        Site.trace s s.Site.tx_ep (fun ~node ~ep ->
            Event.Frame_tx
              { node; ep; seq; mid = Api.last_msg_id s.Site.api; retransmit })

  (* The message id of the data frame just taken from the base. *)
  let recv_mid t =
    match t.site with None -> 0 | Some s -> Api.last_recv_msg_id s.Site.api

  (* RFC 6298 estimator in integer nanoseconds:
     RTTVAR <- 3/4 RTTVAR + 1/4 |SRTT - R|, SRTT <- 7/8 SRTT + 1/8 R. *)
  let rtt_sample t r =
    if r >= 0 then begin
      if t.rtt_samples = 0 then begin
        t.srtt <- r;
        t.rttvar <- r / 2
      end
      else begin
        t.rttvar <- ((3 * t.rttvar) + abs (t.srtt - r)) / 4;
        t.srtt <- ((7 * t.srtt) + r) / 8
      end;
      t.rtt_samples <- t.rtt_samples + 1
    end

  (* SRTT + 4*RTTVAR, clamped between the configured [rto_ns] (a floor)
     and the backoff cap; [rto_ns] alone until measured. *)
  let computed_rto t =
    if t.rtt_samples = 0 then t.cfg.rto_ns
    else min t.cfg.max_rto_ns (max t.cfg.rto_ns (t.srtt + (4 * t.rttvar)))

  let sack_bitmap t =
    let bits = ref 0L in
    Hashtbl.iter
      (fun seq _ ->
        let off = seq - t.expected - 1 in
        if off >= 0 && off < sack_width then
          bits := Int64.logor !bits (Int64.shift_left 1L off))
      t.ooo;
    !bits

  let send_ack t =
    let b = Bytes.create ack_bytes in
    let sack = sack_bitmap t in
    Bytes.set b 0 tag_ack;
    Bytes.set_int32_le b 1 (Int32.of_int t.expected);
    Bytes.set_int64_le b 5 sack;
    match T.try_send t.base b with
    | Ok () ->
        t.pending_ack <- 0;
        t.anomalies <- 0;
        t.ack_due <- false;
        t.last_ack_at <- now t;
        t.r_acks_sent <- t.r_acks_sent + 1;
        (match t.site with
        | None -> ()
        | Some s ->
            Site.trace s s.Site.rx_ep (fun ~node ~ep ->
                Event.Ack_tx
                  { node; ep; cum = t.expected; sacked = popcount64 sack }))
    | Error `No_buffer ->
        (* Base refused transiently; any later ack supersedes this
           one, so just flag the debt and retry from [pump]. *)
        t.ack_due <- true
    | Error e -> raise (Terminal e)

  (* A duplicate or unbufferable frame carries no new state for us,
     but tells the sender its ack was likely lost; re-ack, rate
     limited per [ack_every] anomalies or one RTO of silence. *)
  let maybe_reack t =
    t.anomalies <- t.anomalies + 1;
    if t.anomalies >= t.cfg.ack_every || now t - t.last_ack_at >= t.cfg.rto_ns
    then send_ack t
    else t.r_reacks_suppressed <- t.r_reacks_suppressed + 1

  let apply_sack t ~cum sack =
    if sack <> 0L then
      Queue.iter
        (fun p ->
          if (not p.sacked) && p.seq > cum && p.seq <= cum + sack_width then
            if Int64.logand sack (Int64.shift_left 1L (p.seq - cum - 1)) <> 0L
            then p.sacked <- true)
        t.inflight

  (* Pop every frame the cumulative ack covers; [true] if one of them
     gave an RTT sample. Karn's rule, and SACK-held frames are skipped
     too: their ack was issued long before the cumulative counter
     finally swept past them. *)
  let rec pop_acked t ~now sampled =
    if
      (not (Queue.is_empty t.inflight))
      && (Queue.peek t.inflight).seq <= t.s_acked
    then begin
      let p = Queue.pop t.inflight in
      if p.retransmitted || p.sacked then pop_acked t ~now sampled
      else begin
        rtt_sample t (now - p.sent_at);
        pop_acked t ~now true
      end
    end
    else sampled

  let absorb_ack t frame =
    if Bytes.length frame >= ack_bytes then begin
      let cum = Int32.to_int (Bytes.get_int32_le frame 1) in
      (* Go-back-N ignores SACK: it resends the whole window anyway. *)
      if t.cfg.mode = Selective_repeat then
        apply_sack t ~cum (Bytes.get_int64_le frame 5);
      if cum > t.s_acked then begin
        t.s_acked <- cum;
        let now = now t in
        (* RFC 6298 §5.7: a backed-off RTO stands until a frame is acked
           without retransmission; recomputing from a stale (or absent)
           estimate here would undo the backoff and re-trigger the
           storm. *)
        if pop_acked t ~now false then t.rto_cur <- computed_rto t;
        t.timer <- now
      end
    end

  let release t ~seq ~mid payload =
    t.expected <- seq;
    t.r_delivered <- t.r_delivered + 1;
    Queue.push payload t.rxq;
    match t.site with
    | None -> ()
    | Some s ->
        Site.trace s s.Site.rx_ep (fun ~node ~ep ->
            Event.Frame_deliver { node; ep; seq; mid })

  (* Close any hole the out-of-order buffer already covers; a held
     frame keeps the message id it arrived in. *)
  let rec release_held t =
    let seq = t.expected + 1 in
    match Hashtbl.find_opt t.ooo seq with
    | None -> ()
    | Some payload ->
        Hashtbl.remove t.ooo seq;
        let mid =
          match t.site with
          | None -> 0
          | Some _ ->
              let mid = Hashtbl.find t.ooo_mid seq in
              Hashtbl.remove t.ooo_mid seq;
              mid
        in
        release t ~seq ~mid payload;
        release_held t

  let payload_of frame =
    Bytes.sub frame data_header (Bytes.length frame - data_header)

  let absorb_data t frame =
    if Bytes.length frame >= data_header then begin
      let seq = Int32.to_int (Bytes.get_int32_le frame 1) in
      if seq < 1 then () (* not a frame of ours *)
      else if seq = t.expected + 1 then begin
        release t ~seq ~mid:(recv_mid t) (payload_of frame);
        release_held t;
        t.pending_ack <- t.pending_ack + 1;
        if t.pending_ack >= t.cfg.ack_every then send_ack t
      end
      else if seq <= t.expected || Hashtbl.mem t.ooo seq then begin
        t.r_duplicates <- t.r_duplicates + 1;
        maybe_reack t
      end
      else begin
        t.r_reordered <- t.r_reordered + 1;
        if t.cfg.mode = Selective_repeat && seq <= t.expected + sack_width
        then begin
          (* Buffer out of order and ack immediately: the fresh SACK
             bit is what stops the sender retransmitting this frame. *)
          Hashtbl.replace t.ooo seq (payload_of frame);
          if t.site <> None then Hashtbl.replace t.ooo_mid seq (recv_mid t);
          t.r_ooo_buffered <- t.r_ooo_buffered + 1;
          send_ack t
        end
        else maybe_reack t (* go-back-N, or beyond the bitmap *)
      end
    end

  let check_retransmit t =
    if (not (Queue.is_empty t.inflight)) && now t - t.timer >= t.rto_cur
    then begin
      if (Queue.peek t.inflight).retries >= t.cfg.max_retries then
        raise (Terminal `Peer_dead);
      let sent_any = ref false in
      let blocked = ref false in
      let all_sacked = ref true in
      (* Selective repeat resends only the holes; go-back-N never marks
         a frame SACK-held, so it resends the whole window. *)
      Queue.iter
        (fun p ->
          if not p.sacked then begin
            all_sacked := false;
            if not !blocked then
              match T.try_send t.base p.frame with
              | Ok () ->
                  sent_any := true;
                  p.retries <- p.retries + 1;
                  p.retransmitted <- true;
                  t.s_retransmits <- t.s_retransmits + 1;
                  trace_frame_tx t ~seq:p.seq ~retransmit:true
              | Error `No_buffer ->
                  t.s_backpressure <- t.s_backpressure + 1;
                  blocked := true
              | Error e -> raise (Terminal e)
          end)
        t.inflight;
      if !sent_any then begin
        t.rto_cur <- min (t.rto_cur * 2) t.cfg.max_rto_ns;
        t.timer <- now t
      end
      else if !all_sacked then begin
        (* Every hole is SACK-held yet the cumulative counter has not
           moved for a whole RTO: the ack that would advance it is
           evidently lost, and nothing we send will provoke a re-ack.
           SACK state is advisory — treat it as stale and resend on
           the next expiry. *)
        Queue.iter (fun p -> p.sacked <- false) t.inflight;
        t.timer <- now t
      end
      (* else: pure local backpressure — nothing reached the wire, so
         no retry is spent; leave the timer armed and retry on the next
         pump. A deadline-bounded caller converts a persistent stall
         into [`Timeout]. *)
    end

  let pump t =
    if t.closed then Error `Closed
    else begin
      try
        !!(T.pump t.base);
        let rec drain () =
          match !!(T.recv t.base) with
          | None -> ()
          | Some frame ->
              (if Bytes.length frame >= 1 then
                 match Bytes.get frame 0 with
                 | c when c = tag_data -> absorb_data t frame
                 | c when c = tag_ack -> absorb_ack t frame
                 | _ -> () (* unknown tag: skip *));
              drain ()
        in
        drain ();
        if t.ack_due then send_ack t;
        check_retransmit t;
        Ok ()
      with Terminal e -> Error e
    end

  let try_send t payload =
    if Bytes.length payload > capacity t then
      invalid_arg "Retrans_layer.try_send: payload exceeds capacity";
    match pump t with
    | Error e -> Error e
    | Ok () ->
        if Queue.length t.inflight >= t.cfg.window then Error `No_buffer
        else begin
          let seq = t.next_seq in
          let frame = Bytes.create (data_header + Bytes.length payload) in
          Bytes.set frame 0 tag_data;
          Bytes.set_int32_le frame 1 (Int32.of_int seq);
          Bytes.blit payload 0 frame data_header (Bytes.length payload);
          match T.try_send t.base frame with
          | Ok () ->
              let now = now t in
              if Queue.is_empty t.inflight then begin
                t.timer <- now;
                if t.rtt_samples > 0 then t.rto_cur <- computed_rto t
              end;
              Queue.push
                {
                  seq;
                  frame;
                  sent_at = now;
                  retries = 0;
                  sacked = false;
                  retransmitted = false;
                }
                t.inflight;
              t.next_seq <- seq + 1;
              trace_frame_tx t ~seq ~retransmit:false;
              Ok ()
          | Error `No_buffer ->
              t.s_backpressure <- t.s_backpressure + 1;
              Error `No_buffer
          | Error e -> Error e
        end

  let recv t =
    match pump t with
    | Error e -> Error e
    | Ok () -> Ok (Queue.take_opt t.rxq)

  include Transport.Defaults (struct
    type nonrec t = t

    let now = now
    let idle = idle
    let pump = pump
    let try_send = try_send
    let recv = recv
  end)

  let flush t ~deadline =
    let rec loop () =
      match pump t with
      | Error e -> Error e
      | Ok () ->
          if Queue.is_empty t.inflight then Ok ()
          else if now t >= deadline then Error `Timeout
          else begin
            idle t;
            loop ()
          end
    in
    loop ()

  let close t =
    t.closed <- true;
    T.close t.base

  let in_flight t = Queue.length t.inflight
  let acked t = t.s_acked
  let retransmits t = t.s_retransmits
  let backpressure t = t.s_backpressure
  let srtt_ns t = t.srtt
  let rttvar_ns t = t.rttvar
  let rto_current_ns t = t.rto_cur
  let delivered t = t.r_delivered
  let duplicates t = t.r_duplicates
  let reordered t = t.r_reordered
  let ooo_held t = Hashtbl.length t.ooo
  let ooo_buffered t = t.r_ooo_buffered
  let acks_sent t = t.r_acks_sent
  let reacks_suppressed t = t.r_reacks_suppressed
end
