(* One connection between nodes 0 and 1 of a machine: a
   Channel_transport end on each node, addresses exchanged through
   mailboxes, each end wrapped by [wrap] and driven by its own
   application process ([a] on node 0, [b] on node 1). [wrap] also gets
   the end's trace site, for layers stacked directly on the channel. *)

module Machine = Flipc.Machine
module Mailbox = Flipc_sim.Sync.Mailbox
module Transport = Flipc_flow.Transport
module CT = Flipc_flow.Channel_transport

let terr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Transport.error_to_string e)

let spawn ?(pool = 4) ?(depth = 8) machine ~wrap ~a ~b () =
  let a_addr = Mailbox.create () and b_addr = Mailbox.create () in
  let side ~name ~node ~mine ~theirs body =
    Machine.spawn_app ~name machine ~node (fun api ->
        let base = terr (CT.create api ~pool ~depth ()) in
        Mailbox.put mine (CT.address base);
        terr (CT.connect base (Mailbox.take theirs));
        body (wrap base (CT.site base)))
  in
  side ~name:"pair-a" ~node:0 ~mine:a_addr ~theirs:b_addr a;
  side ~name:"pair-b" ~node:1 ~mine:b_addr ~theirs:a_addr b

(* Run until quiet, then stop the engines and drain. *)
let drain machine =
  Machine.run machine;
  Machine.stop_engines machine;
  Machine.run machine
