(* The benchmark's calls into {!Flipc.Api}. With an actor, each call is a
   span and polls that come back empty are counted; without one, each is
   the bare library call. *)

module Api = Flipc.Api
module Spans = Perfbench_core.Spans

let send tr api ep buf ~msg =
  match tr with
  | None -> Api.send api ep buf
  | Some a ->
      Spans.enter a Tr.api_send ~msg;
      let r = Api.send api ep buf in
      Spans.leave a;
      r

let post_receive tr api ep buf ~msg =
  match tr with
  | None -> Api.post_receive api ep buf
  | Some a ->
      Spans.enter a Tr.api_post_receive ~msg;
      let r = Api.post_receive api ep buf in
      Spans.leave a;
      r

let receive tr api ep ~msg =
  match tr with
  | None -> Api.receive api ep
  | Some a ->
      Spans.enter a Tr.api_receive ~msg;
      let r = Api.receive api ep in
      Spans.leave a;
      if r = None then Spans.bump (Spans.owner a) "api.receive.empty" 1;
      r

let reclaim tr api ep ~msg =
  match tr with
  | None -> Api.reclaim api ep
  | Some a ->
      Spans.enter a Tr.api_reclaim ~msg;
      let r = Api.reclaim api ep in
      Spans.leave a;
      r

let send_burst tr api ep bufs ~msg =
  match tr with
  | None -> Api.send_burst api ep bufs
  | Some a ->
      Spans.enter a Tr.api_send_burst ~msg;
      let r = Api.send_burst api ep bufs in
      Spans.leave a;
      (match r with
      | Ok n -> Spans.bump (Spans.owner a) "api.send_burst.accepted" n
      | Error _ -> ());
      r

let receive_burst tr api ep ~out =
  match tr with
  | None -> Api.receive_burst api ep ~out
  | Some a ->
      Spans.enter a Tr.api_receive_burst ~msg:0;
      let n = Api.receive_burst api ep ~out in
      Spans.leave a;
      if n = 0 then Spans.bump (Spans.owner a) "api.receive.empty" 1;
      n

let post_receive_burst tr api ep bufs =
  match tr with
  | None -> Api.post_receive_burst api ep bufs
  | Some a ->
      Spans.enter a Tr.api_post_receive_burst ~msg:0;
      let r = Api.post_receive_burst api ep bufs in
      Spans.leave a;
      r

let reclaim_burst tr api ep ~out =
  match tr with
  | None -> Api.reclaim_burst api ep ~out
  | Some a ->
      Spans.enter a Tr.api_reclaim_burst ~msg:0;
      let n = Api.reclaim_burst api ep ~out in
      Spans.leave a;
      n
