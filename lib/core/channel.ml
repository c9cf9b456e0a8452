module Mem_port = Flipc_memsim.Mem_port
module Rt_semaphore = Flipc_rt.Rt_semaphore

type error = [ Api.error | `No_buffer ]

let error_to_string = function
  | #Api.error as e -> Api.error_to_string e
  | `No_buffer -> "buffer pool exhausted"

let length_header = 4
let capacity api = Api.payload_bytes api - length_header

type tx = {
  t_api : Api.t;
  t_ep : Api.endpoint;
  pool : Api.buffer Queue.t;
  mutable t_sent : int;
}

type rx = {
  r_api : Api.t;
  r_ep : Api.endpoint;
  mutable r_received : int;
  mutable r_corrupt : int;
}

let create_tx api ~dest ?(pool = 4) ?priority ?burst () =
  if pool < 1 then invalid_arg "Channel.create_tx: pool < 1";
  match Api.allocate_endpoint api ~kind:Endpoint_kind.Send ?priority ?burst () with
  | Error e -> Error (e :> error)
  | Ok ep -> (
      Api.connect api ep dest;
      let q = Queue.create () in
      let rec fill n =
        if n = 0 then Ok ()
        else
          match Api.allocate_buffer api with
          | Ok buf ->
              Queue.push buf q;
              fill (n - 1)
          | Error e -> Error (e :> error)
      in
      match fill pool with
      | Error e -> Error e
      | Ok () -> Ok { t_api = api; t_ep = ep; pool = q; t_sent = 0 })

let reclaim_into_pool t =
  let rec loop () =
    match Api.reclaim t.t_api t.t_ep with
    | Some buf -> Queue.push buf t.pool; loop ()
    | None -> ()
  in
  loop ()

let write_framed api buf payload =
  let len = Bytes.length payload in
  if len > capacity api then
    invalid_arg "Channel.send: payload exceeds channel capacity";
  let framed = Bytes.create (length_header + len) in
  Bytes.set_int32_le framed 0 (Int32.of_int len);
  Bytes.blit payload 0 framed length_header len;
  Api.write_payload api buf framed

let queue_buf t buf payload =
  write_framed t.t_api buf payload;
  match Api.send t.t_api t.t_ep buf with
  | Ok () ->
      t.t_sent <- t.t_sent + 1;
      Ok ()
  | Error e ->
      (* The buffer was never queued: keep it in the pool. *)
      Queue.push buf t.pool;
      Error (e :> error)

let try_send t payload =
  reclaim_into_pool t;
  match Queue.take_opt t.pool with
  | Some buf -> queue_buf t buf payload
  | None -> Error `No_buffer

let send t payload =
  reclaim_into_pool t;
  match Queue.take_opt t.pool with
  | Some buf -> queue_buf t buf payload
  | None ->
      (* Everything is in flight: wait for the engine to transmit one.
         If nothing was ever sent, waiting cannot help. *)
      if t.t_sent = 0 then Error `No_buffer
      else begin
        let rec wait () =
          match Api.reclaim t.t_api t.t_ep with
          | Some buf -> buf
          | None ->
              Mem_port.instr (Api.port t.t_api) 10;
              wait ()
        in
        queue_buf t (wait ()) payload
      end

let send_deadline t ~deadline payload =
  reclaim_into_pool t;
  match Queue.take_opt t.pool with
  | Some buf -> (queue_buf t buf payload :> (unit, [ error | `Timeout ]) result)
  | None ->
      if t.t_sent = 0 then Error `No_buffer
      else begin
        (* Same wait as [send], but bounded by a virtual-clock deadline:
           if the engine never hands a transmitted buffer back (stopped
           engine, dead node), report [`Timeout] instead of spinning
           forever. *)
        let rec wait () =
          match Api.reclaim t.t_api t.t_ep with
          | Some buf -> Ok buf
          | None ->
              if Api.now t.t_api >= deadline then Error `Timeout
              else begin
                Mem_port.instr (Api.port t.t_api) 10;
                wait ()
              end
        in
        match wait () with
        | Error `Timeout -> Error `Timeout
        | Ok buf ->
            (queue_buf t buf payload :> (unit, [ error | `Timeout ]) result)
      end

let sent t = t.t_sent
let tx_endpoint t = t.t_ep

let create_rx api ?(depth = 4) ?semaphore () =
  if depth < 1 then invalid_arg "Channel.create_rx: depth < 1";
  match Api.allocate_endpoint api ~kind:Endpoint_kind.Recv ?semaphore () with
  | Error e -> Error (e :> error)
  | Ok ep -> (
      let rec post n =
        if n = 0 then Ok ()
        else
          match Api.allocate_buffer api with
          | Error e -> Error (e :> error)
          | Ok buf -> (
              match Api.post_receive api ep buf with
              | Ok () -> post (n - 1)
              | Error e -> Error (e :> error))
      in
      match post depth with
      | Error e -> Error e
      | Ok () -> Ok { r_api = api; r_ep = ep; r_received = 0; r_corrupt = 0 })

let address t = Api.address t.r_api t.r_ep

let repost t buf =
  match Api.post_receive t.r_api t.r_ep buf with
  | Ok () -> ()
  | Error _ ->
      (* Queue momentarily full (cannot happen: we just freed a slot), or
         the endpoint was freed under us; drop the buffer back to the
         pool rather than lose it. *)
      Api.free_buffer t.r_api buf

(* A peer that does not speak the channel framing can deliver a garbage
   length word; the receiver must shrug it off, not crash. *)
let consume t buf =
  let header = Api.read_payload t.r_api buf length_header in
  let len = Int32.to_int (Bytes.get_int32_le header 0) in
  if len < 0 || len > capacity t.r_api then begin
    t.r_corrupt <- t.r_corrupt + 1;
    repost t buf;
    None
  end
  else begin
    let payload = Api.read_payload t.r_api buf ~at:length_header len in
    repost t buf;
    t.r_received <- t.r_received + 1;
    Some payload
  end

let rec recv t =
  match Api.receive t.r_api t.r_ep with
  | None -> None
  | Some buf -> (
      match consume t buf with
      | Some payload -> Some payload
      | None -> recv t (* skip the corrupt frame *))

let rec recv_wait t thr =
  match consume t (Api.receive_wait t.r_api t.r_ep thr) with
  | Some payload -> payload
  | None -> recv_wait t thr

let corrupt_frames t = t.r_corrupt
let received t = t.r_received
let rx_endpoint t = t.r_ep
let drops t = Api.drops_read_and_reset t.r_api t.r_ep
