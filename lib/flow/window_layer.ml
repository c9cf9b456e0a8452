(* Frames on the base transport carry a one-byte tag:
     tag 0: data   [0x00 | application payload]
     tag 1: credit [0x01 | cumulative consumed count, int32 LE]
   Cumulative credit counts make credit loss self-healing: any later
   grant supersedes a lost one. *)

module Api = Flipc.Api
module Event = Flipc_obs.Event
module Site = Channel_transport

let tag_data = '\000'
let tag_credit = '\001'
let credit_bytes = 5

module Make (T : Transport.S) = struct
  type t = {
    base : T.t;
    window : int;
    grant_every : int;
    site : Site.site option;
    rxq : Bytes.t Queue.t;
    mutable sent : int;
    mutable granted : int; (* peer's highest cumulative consumed count *)
    mutable received : int;
    mutable consumed : int;
    mutable credits_sent : int;
    mutable pending_grants : int;
    mutable credit_due : bool; (* a grant hit backpressure; retry *)
    mutable closed : bool;
  }

  let create base ~window ?grant_every ?site () =
    if window < 1 then invalid_arg "Window_layer: window < 1";
    let grant_every =
      match grant_every with
      | Some g -> max 1 g
      | None -> max 1 (window / 2)
    in
    let t =
      {
        base;
        window;
        grant_every;
        site;
        rxq = Queue.create ();
        sent = 0;
        granted = 0;
        received = 0;
        consumed = 0;
        credits_sent = 0;
        pending_grants = 0;
        credit_due = false;
        closed = false;
      }
    in
    Option.iter
      (fun s ->
        Site.register_probes s ~layer:"window" s.Site.tx_ep
          [ ("sent", fun () -> t.sent); ("granted", fun () -> t.granted) ];
        Site.register_probes s ~layer:"window" s.Site.rx_ep
          [
            ("received", fun () -> t.received);
            ("consumed", fun () -> t.consumed);
            ("credits_sent", fun () -> t.credits_sent);
          ])
      site;
    t

  let capacity t = T.capacity t.base - 1
  let now t = T.now t.base
  let idle t = T.idle t.base

  let encode_credit count =
    let b = Bytes.create credit_bytes in
    Bytes.set b 0 tag_credit;
    Bytes.set_int32_le b 1 (Int32.of_int count);
    b

  let send_credit t =
    match T.try_send t.base (encode_credit t.consumed) with
    | Ok () ->
        t.credit_due <- false;
        t.credits_sent <- t.credits_sent + 1;
        (match t.site with
        | None -> ()
        | Some s ->
            Site.trace s s.Site.rx_ep (fun ~node ~ep ->
                Event.Credit_grant { node; ep; count = t.consumed }));
        Ok ()
    | Error `No_buffer ->
        (* The base refused transiently; the cumulative count lets any
           later grant stand in for this one. Retry from [pump]. *)
        t.credit_due <- true;
        Ok ()
    | Error e -> Error e

  let absorb t frame =
    if Bytes.length frame < 1 then () (* unframed garbage: skip *)
    else
      match Bytes.get frame 0 with
      | c when c = tag_data ->
          t.received <- t.received + 1;
          Queue.push (Bytes.sub frame 1 (Bytes.length frame - 1)) t.rxq
      | c when c = tag_credit ->
          if Bytes.length frame >= credit_bytes then begin
            let cum = Int32.to_int (Bytes.get_int32_le frame 1) in
            if cum > t.granted then t.granted <- cum
          end
      | _ -> () (* unknown tag: a peer not speaking this layer *)

  let pump t =
    if t.closed then Error `Closed
    else begin
      match T.pump t.base with
      | Error e -> Error e
      | Ok () ->
          let rec drain () =
            match T.recv t.base with
            | Error e -> Error e
            | Ok None -> Ok ()
            | Ok (Some frame) ->
                absorb t frame;
                drain ()
          in
          let r = drain () in
          (match r with
          | Ok () when t.credit_due -> send_credit t
          | r -> r)
    end

  let credits_available t = t.window - (t.sent - t.granted)

  let try_send t payload =
    if Bytes.length payload > capacity t then
      invalid_arg "Window_layer.try_send: payload exceeds capacity";
    match pump t with
    | Error e -> Error e
    | Ok () ->
        if credits_available t <= 0 then Error `No_buffer
        else begin
          let framed = Bytes.create (1 + Bytes.length payload) in
          Bytes.set framed 0 tag_data;
          Bytes.blit payload 0 framed 1 (Bytes.length payload);
          match T.try_send t.base framed with
          | Ok () ->
              t.sent <- t.sent + 1;
              (match t.site with
              | None -> ()
              | Some s ->
                  Site.trace s s.Site.tx_ep (fun ~node ~ep ->
                      Event.Window_send
                        {
                          node;
                          ep;
                          mid = Api.last_msg_id s.Site.api;
                          sent = t.sent;
                          granted = t.granted;
                          window = t.window;
                        }));
              Ok ()
          | Error e -> Error e
        end

  let recv t =
    match pump t with
    | Error e -> Error e
    | Ok () -> (
        match Queue.take_opt t.rxq with
        | None -> Ok None
        | Some payload ->
            t.consumed <- t.consumed + 1;
            t.pending_grants <- t.pending_grants + 1;
            if t.pending_grants >= t.grant_every then begin
              t.pending_grants <- 0;
              match send_credit t with
              | Ok () -> Ok (Some payload)
              | Error e -> Error e
            end
            else Ok (Some payload))

  include Transport.Defaults (struct
    type nonrec t = t

    let now = now
    let idle = idle
    let pump = pump
    let try_send = try_send
    let recv = recv
  end)

  let close t =
    t.closed <- true;
    T.close t.base

  let messages_sent t = t.sent
  let messages_received t = t.consumed
end
