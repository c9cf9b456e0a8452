(* A span wrapper over {!Flipc_flow.Transport.S}, inserted at each layer
   boundary of a stack. The wrapped connection is itself a transport, so
   the layer above takes it as its base: every call a layer makes into
   the one below crosses a wrapper. The blocking operations are derived
   from the wrapped core, so each attempt a blocked [send] makes is a
   [try_send] span of its own and its refusals are counted. *)

module Transport = Flipc_flow.Transport
module Spans = Perfbench_core.Spans

module Make (L : sig
  val layer : int
end)
(T : Transport.S) =
struct
  type t = { inner : T.t; tr : Spans.actor option }

  let wrap ?tr inner = { inner; tr }
  let capacity t = T.capacity t.inner
  let now t = T.now t.inner
  let idle t = T.idle t.inner
  let close t = T.close t.inner
  let span a op = Spans.enter a (Tr.flow L.layer op) ~msg:(Spans.current a)

  let no_buffer =
    Printf.sprintf "flow.%s.no_buffer" Tr.flow_layers.(L.layer)

  let pump t =
    match t.tr with
    | None -> T.pump t.inner
    | Some a ->
        span a Tr.pump;
        let r = T.pump t.inner in
        Spans.leave a;
        r

  let try_send t payload =
    match t.tr with
    | None -> T.try_send t.inner payload
    | Some a ->
        span a Tr.try_send;
        let r = T.try_send t.inner payload in
        Spans.leave a;
        if r = Error `No_buffer then Spans.bump (Spans.owner a) no_buffer 1;
        r

  let recv t =
    match t.tr with
    | None -> T.recv t.inner
    | Some a ->
        span a Tr.recv;
        let r = T.recv t.inner in
        Spans.leave a;
        r

  include Transport.Defaults (struct
    type nonrec t = t

    let now = now
    let idle = idle
    let pump = pump
    let try_send = try_send
    let recv = recv
  end)
end
