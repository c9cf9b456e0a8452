(* The library's own counters, read at the edges of the timed region.

   All of them count virtual work, so they repeat exactly from run to
   run; a snapshot is an int array indexed by the constants below, and
   the timed region's share is the difference of two snapshots. *)

module Machine = Flipc.Machine
module Msg_engine = Flipc.Msg_engine
module Mem_port = Flipc_memsim.Mem_port
module Cache = Flipc_memsim.Cache
module Bus = Flipc_memsim.Bus
module Dma = Flipc_net.Dma
module Faulty = Flipc_net.Faulty

let names =
  [|
    "steps";
    "app_loads";
    "app_stores";
    "coproc_loads";
    "coproc_stores";
    "cache_hits";
    "cache_misses";
    "invalidations";
    "locked_rmws";
    "iterations";
    "sends";
    "recvs";
    "parks";
    "doorbell_hits";
    "rx_truncations";
    "drops";
    "dma_transfers";
    "dma_bytes";
    "packets";
    "wire_ns";
    "faults";
  |]

let steps = 0
let app_loads = 1
let app_stores = 2
let coproc_loads = 3
let coproc_stores = 4
let cache_hits = 5
let cache_misses = 6
let invalidations = 7
let locked_rmws = 8
let iterations = 9
let sends = 10
let recvs = 11
let parks = 12
let doorbell_hits = 13
let rx_truncations = 14
let drops = 15
let dma_transfers = 16
let dma_bytes = 17
let packets = 18
let wire_ns = 19
let faults = 20

type t = int array

let zero () = Array.make (Array.length names) 0

let snapshot m =
  let c = zero () in
  let add i n = c.(i) <- c.(i) + n in
  add steps (Flipc_sim.Engine.steps (Machine.sim m));
  for i = 0 to Machine.node_count m - 1 do
    let n = Machine.node m i in
    for cpu = 0 to Machine.app_cpus n - 1 do
      let p = Machine.app_port n ~cpu in
      add app_loads (Mem_port.load_count p);
      add app_stores (Mem_port.store_count p)
    done;
    let cp = Machine.coproc_port n in
    add coproc_loads (Mem_port.load_count cp);
    add coproc_stores (Mem_port.store_count cp);
    List.iter
      (fun cache ->
        let s = Cache.stats cache in
        add cache_hits s.Cache.hits;
        add cache_misses s.misses;
        add invalidations s.invalidations_received;
        add locked_rmws s.locked_rmws)
      (Bus.caches (Machine.bus n));
    List.iter
      (fun e ->
        let s = Msg_engine.stats e in
        add iterations s.Msg_engine.iterations;
        add sends s.sends;
        add recvs s.recvs;
        add parks s.parks;
        add doorbell_hits s.doorbell_hits;
        add rx_truncations s.rx_truncations;
        add drops s.drops)
      (Machine.msg_engines n);
    let d = Dma.stats (Machine.dma n) in
    add dma_transfers d.Dma.transfers;
    add dma_bytes d.bytes
  done;
  let f = (Machine.fabric m).Flipc_net.Fabric.stats in
  add packets f.Flipc_net.Fabric.packets_sent;
  add wire_ns f.total_wire_ns;
  (match Machine.fault_stats m with
  | Some s ->
      add faults
        (s.Faulty.dropped + s.duplicated + s.reordered + s.delayed
       + s.corrupted + s.burst_dropped)
  | None -> ());
  c

let diff ~before after = Array.mapi (fun i a -> a - before.(i)) after
let add ~into c = Array.iteri (fun i v -> into.(i) <- into.(i) + v) c
