(* Tests for the memory-system simulator: backing store, caches, MESI bus,
   timed ports. *)

module Engine = Flipc_sim.Engine
module Cost_model = Flipc_memsim.Cost_model
module Shared_mem = Flipc_memsim.Shared_mem
module Cache = Flipc_memsim.Cache
module Bus = Flipc_memsim.Bus
module Mem_port = Flipc_memsim.Mem_port

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Shared_mem --- *)

let test_mem_roundtrip () =
  let m = Shared_mem.create ~size:256 in
  Shared_mem.store_int m 0 42;
  Shared_mem.store_int m 252 7;
  Shared_mem.store_int m 128 0x3FFFFFFF;
  check "word 0" 42 (Shared_mem.load_int m 0);
  check "last word" 7 (Shared_mem.load_int m 252);
  check "unwritten zero" 0 (Shared_mem.load_int m 100);
  check "largest storable int" 0x3FFFFFFF (Shared_mem.load_int m 128)

(* One test admits a word; a refused address is reported out of bounds
   before misaligned, as when the two were checked one after the other. *)
let test_mem_bounds () =
  let m = Shared_mem.create ~size:64 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Shared_mem: address 64 out of bounds") (fun () ->
      ignore (Shared_mem.load_int m 64));
  Alcotest.check_raises "misaligned"
    (Invalid_argument "Shared_mem: address 2 misaligned") (fun () ->
      ignore (Shared_mem.load_int m 2));
  Alcotest.check_raises "misaligned and past the end"
    (Invalid_argument "Shared_mem: address 62 out of bounds") (fun () ->
      ignore (Shared_mem.load_int m 62));
  Alcotest.check_raises "negative"
    (Invalid_argument "Shared_mem: address -4 out of bounds") (fun () ->
      Shared_mem.store_int m (-4) 1);
  check "last word loads" 0 (Shared_mem.load_int m 60)

let test_mem_blocks () =
  let m = Shared_mem.create ~size:128 in
  Shared_mem.write_bytes m ~pos:16 (Bytes.of_string "hello world!");
  Alcotest.(check string)
    "read back" "hello world!"
    (Bytes.to_string (Shared_mem.read_bytes m ~pos:16 ~len:12));
  Shared_mem.blit m ~src:16 ~dst:64 ~len:12;
  Alcotest.(check string)
    "blit copy" "hello world!"
    (Bytes.to_string (Shared_mem.read_bytes m ~pos:64 ~len:12));
  Shared_mem.fill m ~pos:16 ~len:4 'x';
  Alcotest.(check string)
    "fill" "xxxxo"
    (Bytes.to_string (Shared_mem.read_bytes m ~pos:16 ~len:5))

let test_mem_store_int_range () =
  let m = Shared_mem.create ~size:8 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Shared_mem.store_int: out of range") (fun () ->
      Shared_mem.store_int m 0 (-1));
  Alcotest.check_raises "past 30 bits"
    (Invalid_argument "Shared_mem.store_int: out of range") (fun () ->
      Shared_mem.store_int m 0 0x40000000)

(* --- Cache --- *)

let test_cache_geometry () =
  let c = Cache.create ~name:"t" () in
  check "line bytes" 32 (Cache.line_bytes c);
  check "line addr" 64 (Cache.line_addr c 95);
  check "line addr exact" 64 (Cache.line_addr c 64)

let test_cache_insert_find () =
  let c = Cache.create ~name:"t" () in
  check_bool "miss initially" true (Cache.find c ~line:0 = Cache.Invalid);
  ignore (Cache.insert c ~line:0 Cache.Exclusive);
  check_bool "hit after insert" true (Cache.find c ~line:0 = Cache.Exclusive);
  Cache.set_state c ~line:0 Cache.Modified;
  check_bool "state updated" true (Cache.find c ~line:0 = Cache.Modified)

let test_cache_invalidate () =
  let c = Cache.create ~name:"t" () in
  ignore (Cache.insert c ~line:32 Cache.Shared);
  check_bool "present" true (Cache.invalidate c ~line:32 = Cache.Shared);
  check_bool "gone" true (Cache.find c ~line:32 = Cache.Invalid);
  check_bool "absent invalidate" true (Cache.invalidate c ~line:32 = Cache.Invalid)

let test_cache_eviction_lru () =
  (* 2 lines x 1 set: tiny cache to force eviction. *)
  let c = Cache.create ~size_bytes:64 ~line_bytes:32 ~assoc:2 ~name:"t" () in
  ignore (Cache.insert c ~line:0 Cache.Exclusive);
  ignore (Cache.insert c ~line:64 Cache.Exclusive);
  (* Touch line 0 so 64 is LRU. *)
  ignore (Cache.find c ~line:0);
  match Cache.insert c ~line:128 Cache.Modified with
  | Some (64, Cache.Exclusive) ->
      check "evictions" 1 (Cache.stats c).Cache.evictions
  | _ -> Alcotest.fail "expected LRU eviction of line 64"

let test_cache_dirty_eviction_counts_writeback () =
  let c = Cache.create ~size_bytes:32 ~line_bytes:32 ~assoc:1 ~name:"t" () in
  ignore (Cache.insert c ~line:0 Cache.Modified);
  ignore (Cache.insert c ~line:32 Cache.Exclusive);
  check "writeback" 1 (Cache.stats c).Cache.writebacks

let test_cache_flush () =
  let c = Cache.create ~name:"t" () in
  ignore (Cache.insert c ~line:0 Cache.Modified);
  ignore (Cache.insert c ~line:32 Cache.Shared);
  check "dirty flushed" 1 (Cache.flush c);
  check_bool "all gone" true (Cache.find c ~line:0 = Cache.Invalid)

let test_cache_set_conflict () =
  (* Two lines mapping to the same set coexist up to the associativity. *)
  let c = Cache.create ~size_bytes:128 ~line_bytes:32 ~assoc:2 ~name:"t" () in
  (* 2 sets; lines 0 and 64 share set 0; line 128 also maps there. *)
  ignore (Cache.insert c ~line:0 Cache.Exclusive);
  ignore (Cache.insert c ~line:64 Cache.Exclusive);
  check_bool "both ways used" true
    (Cache.find c ~line:0 <> Cache.Invalid && Cache.find c ~line:64 <> Cache.Invalid);
  ignore (Cache.insert c ~line:128 Cache.Exclusive);
  let present =
    List.filter (fun l -> Cache.find c ~line:l <> Cache.Invalid) [ 0; 64; 128 ]
  in
  check "associativity bounds residency" 2 (List.length present);
  (* The untouched other set is unaffected. *)
  ignore (Cache.insert c ~line:32 Cache.Shared);
  check_bool "other set intact" true (Cache.find c ~line:32 = Cache.Shared)

(* A set count that is not a positive power of two cannot be indexed by
   a mask: zero and negative sizes, and three sets. *)
let test_cache_create_rejects () =
  let rejects label f =
    Alcotest.check_raises label
      (Invalid_argument
         "Cache.create: set count must be a positive power of two") (fun () ->
        ignore (f () : Cache.t))
  in
  rejects "zero size" (fun () -> Cache.create ~size_bytes:0 ~name:"t" ());
  rejects "negative size" (fun () -> Cache.create ~size_bytes:(-64) ~name:"t" ());
  rejects "three sets" (fun () ->
      Cache.create ~size_bytes:96 ~line_bytes:32 ~assoc:1 ~name:"t" ())

(* A reference model of one cache: each set is a list of (line, state),
   most recently used first, and a line's set is [(line / 32) mod n_sets]. *)
module Lru_model = struct
  type t = {
    assoc : int;
    sets : (int * Cache.state) list array;
    mutable evictions : int;
    mutable writebacks : int;
  }

  let create ~assoc ~n_sets =
    { assoc; sets = Array.make n_sets []; evictions = 0; writebacks = 0 }

  let set m line = (line / 32) mod Array.length m.sets
  let present m line = List.mem_assoc line m.sets.(set m line)

  let use m line state =
    let s = set m line in
    m.sets.(s) <- (line, state) :: List.remove_assoc line m.sets.(s)

  let find m line =
    match List.assoc_opt line m.sets.(set m line) with
    | None -> Cache.Invalid
    | Some state ->
        use m line state;
        state

  let insert m line state =
    let s = set m line in
    let ways = m.sets.(s) in
    if List.mem_assoc line ways || List.length ways < m.assoc then begin
      use m line state;
      None
    end
    else begin
      let lru = List.nth ways (m.assoc - 1) in
      m.evictions <- m.evictions + 1;
      if snd lru = Cache.Modified then m.writebacks <- m.writebacks + 1;
      m.sets.(s) <- (line, state) :: List.filteri (fun i _ -> i < m.assoc - 1) ways;
      Some lru
    end

  let invalidate m line =
    let s = set m line in
    match List.assoc_opt line m.sets.(s) with
    | None -> Cache.Invalid
    | Some state ->
        m.sets.(s) <- List.remove_assoc line m.sets.(s);
        state

  let flush m =
    let dirty = ref 0 in
    Array.iteri
      (fun s ways ->
        List.iter (fun (_, st) -> if st = Cache.Modified then incr dirty) ways;
        m.sets.(s) <- [])
      m.sets;
    !dirty
end

(* 1, 2 and 4 ways by 1, 2 and 8 sets, and the 256-set 2-way default. *)
let model_geometries =
  (2, 256) :: List.concat_map (fun a -> List.map (fun s -> (a, s)) [ 1; 2; 8 ]) [ 1; 2; 4 ]

(* Lines in sets 0, 1 and the last, with two more tags per set than it
   has ways, so that sets fill and evict. *)
let model_line ~assoc ~n_sets pick =
  let set = [| 0; 1; n_sets - 1 |].(pick mod 3) mod n_sets in
  let tag = pick / 3 mod (assoc + 2) in
  ((tag * n_sets) + set) * 32

let model_states = [| Cache.Shared; Cache.Exclusive; Cache.Modified |]

(* Every return value and every statistic of the flat cache equals the
   model's after each operation: [find], [insert], [set_state] on present
   lines, [invalidate] and [flush], for every geometry above. *)
let cache_model_prop =
  QCheck.Test.make ~name:"cache matches a list-per-set LRU model" ~count:200
    QCheck.(list (triple (int_bound 19) (int_bound 59) (int_bound 2)))
    (fun ops ->
      List.for_all
        (fun (assoc, n_sets) ->
          let c =
            Cache.create ~size_bytes:(n_sets * assoc * 32) ~line_bytes:32
              ~assoc ~name:"c" ()
          in
          let m = Lru_model.create ~assoc ~n_sets in
          List.for_all
            (fun (op, pick, st) ->
              let line = model_line ~assoc ~n_sets pick in
              let state = model_states.(st) in
              let same =
                if op < 7 then Cache.find c ~line = Lru_model.find m line
                else if op < 14 then
                  Cache.insert c ~line state = Lru_model.insert m line state
                else if op < 17 && Lru_model.present m line then begin
                  Cache.set_state c ~line state;
                  Lru_model.use m line state;
                  true
                end
                else if op < 17 then Cache.find c ~line = Lru_model.find m line
                else if op < 19 then
                  Cache.invalidate c ~line = Lru_model.invalidate m line
                else Cache.flush c = Lru_model.flush m
              in
              same
              && Cache.stats c
                 = {
                     Cache.hits = 0;
                     misses = 0;
                     invalidations_received = 0;
                     invalidations_caused = 0;
                     writebacks = m.Lru_model.writebacks;
                     evictions = m.Lru_model.evictions;
                     locked_rmws = 0;
                   })
            ops)
        model_geometries)

(* --- Bus / MESI --- *)

let mk_bus ?(n = 2) () =
  let bus = Bus.create ~cost:Cost_model.paragon () in
  let caches = Array.init n (fun i -> Cache.create ~name:(Fmt.str "c%d" i) ()) in
  Array.iter (fun c -> ignore (Bus.attach bus c)) caches;
  (bus, caches)

let state c line = Cache.find c ~line

let test_bus_read_exclusive_then_shared () =
  let bus, caches = mk_bus () in
  ignore (Bus.read bus ~port:0 ~addr:64);
  check_bool "E on sole read" true (state caches.(0) 64 = Cache.Exclusive);
  ignore (Bus.read bus ~port:1 ~addr:64);
  check_bool "both S" true
    (state caches.(0) 64 = Cache.Shared
    && state caches.(1) 64 = Cache.Shared)

let test_bus_write_invalidates () =
  let bus, caches = mk_bus () in
  ignore (Bus.read bus ~port:0 ~addr:0);
  ignore (Bus.read bus ~port:1 ~addr:0);
  ignore (Bus.write bus ~port:0 ~addr:0);
  check_bool "writer M" true (state caches.(0) 0 = Cache.Modified);
  check_bool "other I" true (state caches.(1) 0 = Cache.Invalid);
  check "inval received" 1 (Cache.stats caches.(1)).Cache.invalidations_received;
  check "inval caused" 1 (Cache.stats caches.(0)).Cache.invalidations_caused

let test_bus_remote_dirty_read_costs_more () =
  let bus, caches = mk_bus () in
  ignore (Bus.write bus ~port:0 ~addr:0);
  let cost = Bus.read bus ~port:1 ~addr:0 in
  check "remote dirty cost" Cost_model.paragon.Cost_model.remote_dirty_ns cost;
  check_bool "owner downgraded" true (state caches.(0) 0 = Cache.Shared);
  check "owner writeback" 1 (Cache.stats caches.(0)).Cache.writebacks

let test_bus_write_hit_cheap () =
  let bus, _ = mk_bus () in
  ignore (Bus.write bus ~port:0 ~addr:0);
  let cost = Bus.write bus ~port:0 ~addr:0 in
  check "M write is a hit" Cost_model.paragon.Cost_model.cache_hit_ns cost

let test_bus_locked_rmw_no_residency () =
  let bus, caches = mk_bus () in
  ignore (Bus.read bus ~port:0 ~addr:0);
  ignore (Bus.read bus ~port:1 ~addr:0);
  let cost = Bus.locked_rmw bus ~port:0 ~addr:0 in
  check "bus-locked cost" Cost_model.paragon.Cost_model.bus_locked_rmw_ns cost;
  check_bool "no residency anywhere" true
    (state caches.(0) 0 = Cache.Invalid && state caches.(1) 0 = Cache.Invalid);
  check "rmw counted" 1 (Cache.stats caches.(0)).Cache.locked_rmws

let test_bus_dma_write_invalidates () =
  let bus, caches = mk_bus () in
  ignore (Bus.read bus ~port:0 ~addr:0);
  ignore (Bus.read bus ~port:0 ~addr:32);
  let stall = Bus.dma_access bus ~write:true ~addr:0 ~len:64 in
  check "clean lines no stall" 0 stall;
  check_bool "both lines invalidated" true
    (state caches.(0) 0 = Cache.Invalid && state caches.(0) 32 = Cache.Invalid)

let test_bus_dma_read_snoops_dirty () =
  let bus, caches = mk_bus () in
  ignore (Bus.write bus ~port:0 ~addr:0);
  let stall = Bus.dma_access bus ~write:false ~addr:0 ~len:32 in
  check "writeback stall" Cost_model.paragon.Cost_model.writeback_ns stall;
  check_bool "owner downgraded to S" true (state caches.(0) 0 = Cache.Shared)

let test_bus_invalidations_in_range () =
  let bus, _ = mk_bus () in
  ignore (Bus.read bus ~port:1 ~addr:0);
  ignore (Bus.write bus ~port:0 ~addr:0);
  ignore (Bus.read bus ~port:1 ~addr:64);
  ignore (Bus.write bus ~port:0 ~addr:64);
  check "both lines counted" 2 (Bus.invalidations_in bus ~lo:0 ~hi:96);
  check "range filter" 1 (Bus.invalidations_in bus ~lo:64 ~hi:96);
  (match Bus.hot_lines bus ~limit:1 with
  | [ (_, 1) ] -> ()
  | _ -> Alcotest.fail "hot line count");
  Bus.reset_stats bus;
  check "reset" 0 (Bus.invalidations_in bus ~lo:0 ~hi:96)

(* Cache hits are the common case of every simulated access: a hit walks
   the tag store and returns a cost without allocating. The bound leaves
   room for the two boxed floats of the measurement itself. *)
let test_bus_hits_allocation_free () =
  let bus, caches = mk_bus () in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (f () : int)
    done;
    Gc.minor_words () -. before
  in
  ignore (Bus.write bus ~port:0 ~addr:0);
  let reads = words (fun () -> Bus.read bus ~port:0 ~addr:0) in
  let writes = words (fun () -> Bus.write bus ~port:0 ~addr:0) in
  check "all hits" 20_000 (Cache.stats caches.(0)).Cache.hits;
  check_bool (Printf.sprintf "10k read hits allocated %.0f words" reads) true
    (reads < 10.);
  check_bool (Printf.sprintf "10k write hits allocated %.0f words" writes) true
    (writes < 10.)

(* MESI invariant: at most one Modified holder per line, and a Modified
   holder excludes all other states. Checked over random operation
   sequences. *)
let mesi_invariant_prop =
  QCheck.Test.make ~name:"MESI single-writer invariant" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 7)))
    (fun ops ->
      let bus, caches = mk_bus ~n:3 () in
      List.for_all
        (fun (port, line_idx) ->
          let addr = line_idx * 32 in
          (match line_idx mod 3 with
          | 0 -> ignore (Bus.read bus ~port ~addr)
          | 1 -> ignore (Bus.write bus ~port ~addr)
          | _ -> ignore (Bus.locked_rmw bus ~port ~addr));
          (* Check the invariant on every line after each step. *)
          List.for_all
            (fun line ->
              let states =
                Array.to_list caches
                |> List.map (fun c -> Cache.find c ~line)
                |> List.filter (fun s -> s <> Cache.Invalid)
              in
              let modified =
                List.length (List.filter (fun s -> s = Cache.Modified) states)
              in
              let exclusive =
                List.length (List.filter (fun s -> s = Cache.Exclusive) states)
              in
              if modified > 0 || exclusive > 0 then List.length states = 1
              else true)
            [ 0; 32; 64; 96; 128; 160; 192; 224 ])
        ops)

(* --- Mem_port --- *)

let mk_port () =
  let engine = Engine.create () in
  let mem = Shared_mem.create ~size:4096 in
  let bus = Bus.create ~cost:Cost_model.paragon () in
  let cache = Cache.create ~name:"cpu" () in
  let port = Mem_port.create ~engine ~mem ~bus ~cache ~name:"cpu" in
  (engine, port)

let run_in engine f =
  let result = ref None in
  Engine.spawn engine (fun () -> result := Some (f ()));
  Engine.run engine;
  Option.get !result

let test_port_charges_time () =
  let engine, port = mk_port () in
  run_in engine (fun () ->
      let t0 = Engine.now engine in
      Mem_port.store port 0 5;
      let t1 = Engine.now engine in
      check_bool "store charged" true (t1 > t0);
      check "value stored" 5 (Mem_port.load port 0);
      let t2 = Engine.now engine in
      (* Second access to the same line should be a cheap hit. *)
      ignore (Mem_port.load port 0);
      let t3 = Engine.now engine in
      check "hit cost" Cost_model.paragon.Cost_model.cache_hit_ns (t3 - t2);
      check_bool "miss dearer than hit" true (t1 - t0 > t3 - t2))

let test_port_test_and_set () =
  let engine, port = mk_port () in
  run_in engine (fun () ->
      check_bool "acquires free lock" true (Mem_port.test_and_set port 64);
      check_bool "fails held lock" false (Mem_port.test_and_set port 64);
      Mem_port.clear port 64;
      check_bool "reacquires" true (Mem_port.test_and_set port 64))

let test_port_bytes () =
  let engine, port = mk_port () in
  run_in engine (fun () ->
      Mem_port.write_bytes port ~pos:128 (Bytes.of_string "payload");
      Alcotest.(check string)
        "roundtrip" "payload"
        (Bytes.to_string (Mem_port.read_bytes port ~pos:128 ~len:7)))

let test_port_instr () =
  let engine, port = mk_port () in
  run_in engine (fun () ->
      let t0 = Engine.now engine in
      Mem_port.instr port 10;
      check "10 instrs" (10 * Cost_model.paragon.Cost_model.instr_ns)
        (Engine.now engine - t0))

let test_port_peek_poke_untimed () =
  let engine, port = mk_port () in
  Mem_port.poke port 0 99;
  check "poke visible" 99 (Mem_port.peek port 0);
  ignore engine

let () =
  Alcotest.run "memsim"
    [
      ( "shared_mem",
        [
          Alcotest.test_case "roundtrip" `Quick test_mem_roundtrip;
          Alcotest.test_case "bounds" `Quick test_mem_bounds;
          Alcotest.test_case "blocks" `Quick test_mem_blocks;
          Alcotest.test_case "store range" `Quick test_mem_store_int_range;
        ] );
      ( "cache",
        [
          Alcotest.test_case "geometry" `Quick test_cache_geometry;
          Alcotest.test_case "insert/find" `Quick test_cache_insert_find;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction_lru;
          Alcotest.test_case "dirty eviction" `Quick
            test_cache_dirty_eviction_counts_writeback;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "set conflict" `Quick test_cache_set_conflict;
          Alcotest.test_case "create rejects unindexable geometry" `Quick
            test_cache_create_rejects;
          QCheck_alcotest.to_alcotest cache_model_prop;
        ] );
      ( "bus",
        [
          Alcotest.test_case "read E then S" `Quick
            test_bus_read_exclusive_then_shared;
          Alcotest.test_case "write invalidates" `Quick
            test_bus_write_invalidates;
          Alcotest.test_case "remote dirty read" `Quick
            test_bus_remote_dirty_read_costs_more;
          Alcotest.test_case "write hit cheap" `Quick test_bus_write_hit_cheap;
          Alcotest.test_case "locked rmw" `Quick
            test_bus_locked_rmw_no_residency;
          Alcotest.test_case "dma write" `Quick test_bus_dma_write_invalidates;
          Alcotest.test_case "dma read snoop" `Quick
            test_bus_dma_read_snoops_dirty;
          Alcotest.test_case "invalidation ranges" `Quick
            test_bus_invalidations_in_range;
          Alcotest.test_case "hits allocation-free" `Quick
            test_bus_hits_allocation_free;
          QCheck_alcotest.to_alcotest mesi_invariant_prop;
        ] );
      ( "mem_port",
        [
          Alcotest.test_case "charges time" `Quick test_port_charges_time;
          Alcotest.test_case "test and set" `Quick test_port_test_and_set;
          Alcotest.test_case "bytes" `Quick test_port_bytes;
          Alcotest.test_case "instr" `Quick test_port_instr;
          Alcotest.test_case "peek/poke" `Quick test_port_peek_poke_untimed;
        ] );
    ]
