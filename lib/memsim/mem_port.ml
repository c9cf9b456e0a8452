module Engine = Flipc_sim.Engine

type t = {
  engine : Engine.t;
  mem : Shared_mem.t;
  bus : Bus.t;
  cache : Cache.t;
  port : Bus.port;
  name : string;
  mutable loads : int;
  mutable stores : int;
}

let create ~engine ~mem ~bus ~cache ~name =
  let port = Bus.attach bus cache in
  { engine; mem; bus; cache; port; name; loads = 0; stores = 0 }

let name t = t.name
let engine t = t.engine
let mem t = t.mem
let bus t = t.bus
let cache t = t.cache

let load t addr =
  t.loads <- t.loads + 1;
  Engine.delay_on t.engine (Bus.read t.bus ~port:t.port ~addr);
  Shared_mem.load_int t.mem addr

let store t addr v =
  t.stores <- t.stores + 1;
  Engine.delay_on t.engine (Bus.write t.bus ~port:t.port ~addr);
  Shared_mem.store_int t.mem addr v

let load_count t = t.loads
let store_count t = t.stores

let reset_counts t =
  t.loads <- 0;
  t.stores <- 0

let test_and_set t addr =
  Engine.delay_on t.engine (Bus.locked_rmw t.bus ~port:t.port ~addr);
  let old = Shared_mem.load_int t.mem addr in
  Shared_mem.store_int t.mem addr 1;
  old = 0

let fetch_add t addr n =
  Engine.delay_on t.engine (Bus.locked_rmw t.bus ~port:t.port ~addr);
  let old = Shared_mem.load_int t.mem addr in
  Shared_mem.store_int t.mem addr (old + n);
  old

let clear t addr = store t addr 0

let lines_cost t ~pos ~len ~write =
  let line_bytes = Cache.line_bytes t.cache in
  let first = pos land lnot (line_bytes - 1) in
  let cost = ref 0 in
  let line = ref first in
  while !line < pos + len do
    let access = if write then Bus.write else Bus.read in
    cost := !cost + access t.bus ~port:t.port ~addr:!line;
    line := !line + line_bytes
  done;
  !cost

let read_bytes t ~pos ~len =
  Engine.delay_on t.engine (lines_cost t ~pos ~len ~write:false);
  Shared_mem.read_bytes t.mem ~pos ~len

let write_bytes t ~pos b =
  Engine.delay_on t.engine (lines_cost t ~pos ~len:(Bytes.length b) ~write:true);
  Shared_mem.write_bytes t.mem ~pos b

let instr t n =
  if n > 0 then
    Engine.delay_on t.engine (n * (Bus.cost_model t.bus).Cost_model.instr_ns)

let peek t addr = Shared_mem.load_int t.mem addr
let poke t addr v = Shared_mem.store_int t.mem addr v
