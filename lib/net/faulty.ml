module Engine = Flipc_sim.Engine
module Prng = Flipc_sim.Prng

type ge = {
  p_good_bad : float;
  p_bad_good : float;
  drop_good : float;
  drop_bad : float;
}

let burst ?(p_good_bad = 0.01) ?(p_bad_good = 0.25) ?(drop_good = 0.0)
    ?(drop_bad = 0.5) () =
  { p_good_bad; p_bad_good; drop_good; drop_bad }

type config = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_hold_ns : int;
  jitter_ns : int;
  corrupt : float;
  burst : ge option;
  seed : int;
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_hold_ns = 50_000;
    jitter_ns = 0;
    corrupt = 0.0;
    burst = None;
    seed = 1;
  }

let config ?(drop = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0)
    ?(reorder_hold_ns = 50_000) ?(jitter_ns = 0) ?(corrupt = 0.0) ?burst
    ?(seed = 1) () =
  { drop; duplicate; reorder; reorder_hold_ns; jitter_ns; corrupt; burst; seed }

type links = src:int -> dst:int -> config option

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delayed : int;
  mutable corrupted : int;
  mutable burst_dropped : int;
  mutable ge_good_pkts : int;
  mutable ge_bad_pkts : int;
  mutable ge_bursts : int;
}

(* Keyed on the shared Fabric.stats record by physical identity, like
   Mesh.contention_stall_ns: the record is mutable so it cannot be a hash
   key. The key is held weakly so a dead machine's fabric does not pin
   its tally forever, dead entries are swept on every [wrap], and a hard
   cap bounds the table even when stats records stay strongly rooted
   elsewhere (e.g. Mesh's contention table). Wrapping the same inner
   fabric twice finds one entry: both layers tally into it, so
   [stats_of] stays unambiguous instead of answering for whichever wrap
   registered last. *)
type entry = { key : Fabric.stats Weak.t; tally : stats }

let registry : entry list ref = ref []
let registry_cap = 64
let entry_key e = Weak.get e.key 0
let sweep () = registry := List.filter (fun e -> entry_key e <> None) !registry

let registry_size () =
  sweep ();
  List.length !registry

let find_entry stats =
  List.find_opt
    (fun e -> match entry_key e with Some s -> s == stats | None -> false)
    !registry

let tallies s =
  [
    ("dropped", s.dropped);
    ("duplicated", s.duplicated);
    ("reordered", s.reordered);
    ("delayed", s.delayed);
    ("corrupted", s.corrupted);
    ("burst_dropped", s.burst_dropped);
    ("ge_good_pkts", s.ge_good_pkts);
    ("ge_bad_pkts", s.ge_bad_pkts);
    ("ge_bursts", s.ge_bursts);
  ]

let stats_json s =
  Flipc_obs.Json.Obj
    (List.map (fun (k, v) -> (k, Flipc_obs.Json.Int v)) (tallies s))

let stats_of (fabric : Fabric.t) =
  Option.map (fun e -> e.tally) (find_entry fabric.Fabric.stats)

let validate_prob name p =
  if p < 0.0 || p > 1.0 then
    invalid_arg (Printf.sprintf "Faulty.wrap: %s not in [0,1]" name)

let validate_config c =
  validate_prob "drop" c.drop;
  validate_prob "duplicate" c.duplicate;
  validate_prob "reorder" c.reorder;
  validate_prob "corrupt" c.corrupt;
  (match c.burst with
  | Some g ->
      validate_prob "burst.p_good_bad" g.p_good_bad;
      validate_prob "burst.p_bad_good" g.p_bad_good;
      validate_prob "burst.drop_good" g.drop_good;
      validate_prob "burst.drop_bad" g.drop_bad
  | None -> ());
  if c.reorder_hold_ns < 0 || c.jitter_ns < 0 then
    invalid_arg "Faulty.wrap: negative delay bound"

(* One fault lane: the per-fault PRNG streams plus the Gilbert–Elliott
   channel state for one configuration (fabric-wide, or one (src,dst)
   link override). Every fault kind draws from its own splitmix64 stream,
   derived from the lane seed in a fixed order, so changing one fault's
   probability can never shift the values another fault's decisions see —
   seeded runs stay comparable across configs. The duplicate copy's
   delay draws get their own streams too, so enabling duplication does
   not perturb the primary copy's reorder/jitter sequence. *)
type lane = {
  lcfg : config;
  drop_rng : Prng.t;
  ge_rng : Prng.t;
  dup_rng : Prng.t;
  corrupt_rng : Prng.t;
  reorder_rng : Prng.t;
  jitter_rng : Prng.t;
  dup_reorder_rng : Prng.t;
  dup_jitter_rng : Prng.t;
  mutable ge_bad : bool;
}

let make_lane ~seed c =
  (* A zero hold cannot let anything overtake the held packet, so it
     disables reordering outright instead of counting no-op "reorders". *)
  let c = if c.reorder_hold_ns = 0 then { c with reorder = 0.0 } else c in
  let root = Prng.create ~seed in
  let drop_rng = Prng.split root in
  let ge_rng = Prng.split root in
  let dup_rng = Prng.split root in
  let corrupt_rng = Prng.split root in
  let reorder_rng = Prng.split root in
  let jitter_rng = Prng.split root in
  let dup_reorder_rng = Prng.split root in
  let dup_jitter_rng = Prng.split root in
  {
    lcfg = c;
    drop_rng;
    ge_rng;
    dup_rng;
    corrupt_rng;
    reorder_rng;
    jitter_rng;
    dup_reorder_rng;
    dup_jitter_rng;
    ge_bad = false;
  }

(* Mix the link endpoints into the per-link seed so two links sharing one
   override config still fault independently. *)
let link_seed base ~src ~dst =
  base lxor (((src + 1) * 0x9E3779B1) + ((dst + 1) * 0x85EBCA77))

let copy_packet (p : Packet.t) =
  { p with Packet.payload = Bytes.copy p.Packet.payload }

let wrap ~engine ~config:c ?links ?obs (inner : Fabric.t) =
  validate_config c;
  sweep ();
  let stats =
    match find_entry inner.Fabric.stats with
    | Some e -> e.tally (* double wrap: merge into the existing tally *)
    | None ->
        let tally =
          {
            dropped = 0;
            duplicated = 0;
            reordered = 0;
            delayed = 0;
            corrupted = 0;
            burst_dropped = 0;
            ge_good_pkts = 0;
            ge_bad_pkts = 0;
            ge_bursts = 0;
          }
        in
        let key = Weak.create 1 in
        Weak.set key 0 (Some inner.Fabric.stats);
        registry := { key; tally } :: !registry;
        if List.length !registry > registry_cap then
          registry := List.filteri (fun i _ -> i < registry_cap) !registry;
        tally
  in
  (match obs with
  | Some o ->
      let m = Flipc_obs.Obs.metrics o in
      List.iter
        (fun (name, _) ->
          Flipc_obs.Metrics.probe m ("fabric.faults." ^ name) (fun () ->
              float_of_int (List.assoc name (tallies stats))))
        (tallies stats)
  | None -> ());
  let base_lane = make_lane ~seed:c.seed c in
  (* Per-link override lanes, created on first use so the table only
     holds links the configuration actually singles out. *)
  let link_lanes : (int, lane) Hashtbl.t = Hashtbl.create 8 in
  let lane_for ~src ~dst =
    match links with
    | None -> base_lane
    | Some f -> (
        match f ~src ~dst with
        | None -> base_lane
        | Some lc -> (
            let k = (src lsl 20) lor (dst land 0xFFFFF) in
            match Hashtbl.find_opt link_lanes k with
            | Some lane -> lane
            | None ->
                validate_config lc;
                let lane =
                  make_lane ~seed:(link_seed lc.seed ~src ~dst) lc
                in
                Hashtbl.add link_lanes k lane;
                lane))
  in
  (* FLIPC packets carry the wire image as payload, whose second word is
     the stamped causal message id (lib/net cannot see Flipc.Msg_buffer,
     so the layout knowledge — id in bits 2.. of the little-endian word
     at byte 4 — is duplicated here). Other protocols get id 0. *)
  let mid_of (p : Packet.t) =
    let payload = p.Packet.payload in
    if p.Packet.protocol = Packet.Flipc && Bytes.length payload >= 8 then
      (Int32.to_int (Bytes.get_int32_le payload 4) land 0x3FFF_FFFF) lsr 2
    else 0
  in
  let fault kind (p : Packet.t) =
    match obs with
    | Some o when Flipc_obs.Obs.tracing o ->
        Flipc_obs.Obs.event o
          (Flipc_obs.Event.Fault { node = p.Packet.src; kind; mid = mid_of p })
    | _ -> ()
  in
  let draw rng p = Prng.float rng 1.0 < p in
  (* One Gilbert–Elliott step per packet: transition first, then the
     current state's drop rate decides. Exactly two draws per packet keep
     the chain's stream aligned across configs. *)
  let step_ge lane g =
    (if lane.ge_bad then begin
       if draw lane.ge_rng g.p_bad_good then lane.ge_bad <- false
     end
     else if draw lane.ge_rng g.p_good_bad then begin
       lane.ge_bad <- true;
       stats.ge_bursts <- stats.ge_bursts + 1
     end);
    if lane.ge_bad then begin
      stats.ge_bad_pkts <- stats.ge_bad_pkts + 1;
      draw lane.ge_rng g.drop_bad
    end
    else begin
      stats.ge_good_pkts <- stats.ge_good_pkts + 1;
      draw lane.ge_rng g.drop_good
    end
  in
  (* A delayed submission holds a private copy: the caller (or a fault on
     another copy) may touch the payload bytes between scheduling and the
     deferred send, and the held packet must not see that. *)
  let submit p delay =
    if delay = 0 then inner.Fabric.send p
    else
      let held = copy_packet p in
      Engine.spawn_at ~name:"fault-delay" engine
        (Engine.now engine + delay)
        (fun () -> inner.Fabric.send held)
  in
  let copy_delay lane ~reorder_rng ~jitter_rng p =
    let c = lane.lcfg in
    let jitter =
      if c.jitter_ns > 0 then begin
        let d = Prng.int jitter_rng (c.jitter_ns + 1) in
        if d > 0 then begin
          stats.delayed <- stats.delayed + 1;
          fault Flipc_obs.Event.Fault_jitter p
        end;
        d
      end
      else 0
    in
    let hold =
      if draw reorder_rng c.reorder then begin
        stats.reordered <- stats.reordered + 1;
        fault Flipc_obs.Event.Fault_reorder p;
        1 + Prng.int reorder_rng c.reorder_hold_ns
      end
      else 0
    in
    jitter + hold
  in
  (* Flip 1–3 seeded bits in a fresh copy of the wire image. Mutating a
     copy keeps the caller's bytes (and any duplicate) intact — only this
     transmission is damaged, as on a real wire. *)
  let corrupted_copy lane (p : Packet.t) =
    let bytes = Bytes.copy p.Packet.payload in
    let nbits = Bytes.length bytes * 8 in
    if nbits > 0 then begin
      let flips = 1 + Prng.int lane.corrupt_rng 3 in
      for _ = 1 to flips do
        let bit = Prng.int lane.corrupt_rng nbits in
        let byte = bit lsr 3 in
        let mask = 1 lsl (bit land 7) in
        Bytes.set bytes byte
          (Char.chr (Char.code (Bytes.get bytes byte) lxor mask))
      done
    end;
    { p with Packet.payload = bytes }
  in
  let send (p : Packet.t) =
    let lane = lane_for ~src:p.Packet.src ~dst:p.Packet.dst in
    let c = lane.lcfg in
    (* Sample every fault decision unconditionally, each from its own
       stream, before acting on any of them: a fired drop must not
       short-circuit (and thereby shift) the other faults' draws. *)
    let uniform_drop = draw lane.drop_rng c.drop in
    let ge_drop =
      match c.burst with None -> false | Some g -> step_ge lane g
    in
    let duplicate = draw lane.dup_rng c.duplicate in
    let corrupt_now = draw lane.corrupt_rng c.corrupt in
    if uniform_drop || ge_drop then begin
      if uniform_drop then stats.dropped <- stats.dropped + 1
      else stats.burst_dropped <- stats.burst_dropped + 1;
      fault Flipc_obs.Event.Fault_drop p
    end
    else begin
      let first =
        if corrupt_now then begin
          stats.corrupted <- stats.corrupted + 1;
          fault Flipc_obs.Event.Fault_corrupt p;
          corrupted_copy lane p
        end
        else p
      in
      submit first
        (copy_delay lane ~reorder_rng:lane.reorder_rng
           ~jitter_rng:lane.jitter_rng first);
      if duplicate then begin
        stats.duplicated <- stats.duplicated + 1;
        fault Flipc_obs.Event.Fault_duplicate p;
        (* The duplicate is an independent clean copy of the original:
           shared payload bytes would let one copy's corruption bleed
           into the other. *)
        let dup = copy_packet p in
        submit dup
          (copy_delay lane ~reorder_rng:lane.dup_reorder_rng
             ~jitter_rng:lane.dup_jitter_rng dup)
      end
    end
  in
  {
    Fabric.name = inner.Fabric.name ^ "+faults";
    node_count = inner.Fabric.node_count;
    send;
    set_handler = inner.Fabric.set_handler;
    stats = inner.Fabric.stats;
  }
