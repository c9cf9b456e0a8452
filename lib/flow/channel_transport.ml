module Api = Flipc.Api
module Address = Flipc.Address
module Channel = Flipc.Channel
module Mem_port = Flipc_memsim.Mem_port
module Obs = Flipc_obs.Obs

type t = {
  api : Api.t;
  rx : Channel.rx;
  pool : int option; (* tx pool size, consumed at [connect] *)
  mutable tx : Channel.tx option;
  mutable closed : bool;
}

let chan_err : Channel.error -> Transport.error = function
  | `No_buffer -> `No_buffer
  | #Api.error as e -> `Api e

let create api ?pool ?depth ?semaphore () =
  match Channel.create_rx api ?depth ?semaphore () with
  | Error e -> Error (chan_err e)
  | Ok rx -> Ok { api; rx; pool; tx = None; closed = false }

let address t = Channel.address t.rx

let connect t dest =
  if t.closed || t.tx <> None then Error `Closed
  else
    match Channel.create_tx t.api ~dest ?pool:t.pool () with
    | Error e -> Error (chan_err e)
    | Ok tx ->
        t.tx <- Some tx;
        Ok ()

let capacity t = Channel.capacity t.api
let now t = Api.now t.api
let idle t = Mem_port.instr (Api.port t.api) 10
let pump t = if t.closed then Error `Closed else Ok ()

let try_send t payload =
  if t.closed then Error `Closed
  else
    match t.tx with
    | None -> Error `Closed
    | Some tx -> (
        match Channel.try_send tx payload with
        | Ok () -> Ok ()
        | Error `No_buffer | Error `Full ->
            (* Transmit pool starved or send ring momentarily full:
               transient backpressure, uniformly [`No_buffer]. *)
            Error `No_buffer
        | Error (#Api.error as e) -> Error (`Api e))

let recv t =
  if t.closed then Error `Closed
  else
    match Channel.recv t.rx with
    | Some payload -> Ok (Some payload)
    | None -> Ok None

include Transport.Defaults (struct
  type nonrec t = t

  let now = now
  let idle = idle
  let pump = pump
  let try_send = try_send
  let recv = recv
end)

let close t = t.closed <- true

type site = { api : Api.t; tx_ep : Api.endpoint; rx_ep : Api.endpoint }

let site t =
  match t.tx with
  | Some tx ->
      {
        api = t.api;
        tx_ep = Channel.tx_endpoint tx;
        rx_ep = Channel.rx_endpoint t.rx;
      }
  | None -> invalid_arg "Channel_transport.site: not connected"

let trace site ep ev =
  match Api.obs site.api with
  | Some o when Obs.tracing o ->
      let addr = Api.address site.api ep in
      Obs.event o (ev ~node:(Address.node addr) ~ep:(Address.endpoint addr))
  | _ -> ()

let register_probes site ~layer ep fields =
  match Api.obs site.api with
  | Some o ->
      let addr = Api.address site.api ep in
      let pfx =
        Printf.sprintf "node%d.%s.ep%d." (Address.node addr) layer
          (Address.endpoint addr)
      in
      List.iter
        (fun (name, read) ->
          Flipc_obs.Metrics.probe (Obs.metrics o) (pfx ^ name) (fun () ->
              float_of_int (read ())))
        fields
  | None -> ()

let drops t = Channel.drops t.rx
let corrupt_frames t = Channel.corrupt_frames t.rx

let sent t = match t.tx with Some tx -> Channel.sent tx | None -> 0
let received t = Channel.received t.rx
