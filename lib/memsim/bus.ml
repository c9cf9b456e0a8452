type port = int

type t = {
  cost : Cost_model.t;
  mutable caches : Cache.t array;
  line_invalidations : (int, int) Hashtbl.t;
  mutable dropped_dirty : bool;
      (* set by [invalidate_others]: one of the dropped copies was Modified *)
}

let create ~cost () =
  {
    cost;
    caches = [||];
    line_invalidations = Hashtbl.create 64;
    dropped_dirty = false;
  }

let cost_model t = t.cost

let attach t cache =
  (match t.caches with
  | [||] -> ()
  | cs ->
      if Cache.line_bytes cs.(0) <> Cache.line_bytes cache then
        invalid_arg "Bus.attach: mismatched line sizes");
  t.caches <- Array.append t.caches [| cache |];
  Array.length t.caches - 1

let caches t = Array.to_list t.caches

let bad_port () = invalid_arg "Bus: bad port" [@@inline never]

let[@inline] cache t port =
  if port < 0 || port >= Array.length t.caches then bad_port ();
  Array.unsafe_get t.caches port

let count_invalidation t line =
  match Hashtbl.find t.line_invalidations line with
  | n -> Hashtbl.replace t.line_invalidations line (n + 1)
  | exception Not_found -> Hashtbl.add t.line_invalidations line 1

(* The cache walks below run on every coherence action, so they are plain
   loops: no closure, tuple or option per access. *)

(* Invalidate [line] in every cache except [port]; returns the number of
   remote copies dropped and sets [t.dropped_dirty]. *)
let invalidate_others t ~port ~line =
  let dropped = ref 0 and dirty = ref false in
  for i = 0 to Array.length t.caches - 1 do
    if i <> port then begin
      let c = t.caches.(i) in
      match Cache.invalidate c ~line with
      | Invalid -> ()
      | prior ->
          incr dropped;
          count_invalidation t line;
          let stats = Cache.stats c in
          stats.invalidations_received <- stats.invalidations_received + 1;
          if prior = Modified then dirty := true
    end
  done;
  t.dropped_dirty <- !dirty;
  !dropped

(* Downgrade remote Exclusive/Modified copies to Shared; true if a remote
   Modified copy had to be written back. *)
let downgrade_others t ~port ~line =
  let was_dirty = ref false in
  for i = 0 to Array.length t.caches - 1 do
    if i <> port then begin
      let c = t.caches.(i) in
      match Cache.find c ~line with
      | Modified ->
          was_dirty := true;
          (Cache.stats c).writebacks <- (Cache.stats c).writebacks + 1;
          Cache.set_state c ~line Shared
      | Exclusive -> Cache.set_state c ~line Shared
      | Shared | Invalid -> ()
    end
  done;
  !was_dirty

let any_other_holds t ~port ~line =
  let held = ref false in
  for i = 0 to Array.length t.caches - 1 do
    if i <> port && Cache.find t.caches.(i) ~line <> Invalid then held := true
  done;
  !held

let eviction_cost t = function
  | Some (_, Cache.Modified) -> t.cost.Cost_model.writeback_ns
  | Some _ | None -> 0

let read t ~port ~addr =
  let c = cache t port in
  let line = Cache.line_addr c addr in
  let stats = Cache.stats c in
  match Cache.find c ~line with
  | Shared | Exclusive | Modified ->
      stats.hits <- stats.hits + 1;
      t.cost.Cost_model.cache_hit_ns
  | Invalid ->
      stats.misses <- stats.misses + 1;
      let remote_dirty = downgrade_others t ~port ~line in
      let shared = any_other_holds t ~port ~line in
      let state = if shared then Cache.Shared else Cache.Exclusive in
      let evicted = Cache.insert c ~line state in
      let base =
        if remote_dirty then t.cost.Cost_model.remote_dirty_ns
        else t.cost.Cost_model.cache_miss_ns
      in
      base + eviction_cost t evicted

let write t ~port ~addr =
  let c = cache t port in
  let line = Cache.line_addr c addr in
  let stats = Cache.stats c in
  match Cache.find c ~line with
  | Modified ->
      stats.hits <- stats.hits + 1;
      t.cost.Cost_model.cache_hit_ns
  | Exclusive ->
      stats.hits <- stats.hits + 1;
      Cache.set_state c ~line Modified;
      t.cost.Cost_model.cache_hit_ns
  | Shared ->
      stats.hits <- stats.hits + 1;
      let dropped = invalidate_others t ~port ~line in
      stats.invalidations_caused <- stats.invalidations_caused + dropped;
      Cache.set_state c ~line Modified;
      t.cost.Cost_model.cache_hit_ns
      + (dropped * t.cost.Cost_model.invalidate_ns)
  | Invalid ->
      stats.misses <- stats.misses + 1;
      let dropped = invalidate_others t ~port ~line in
      stats.invalidations_caused <- stats.invalidations_caused + dropped;
      let evicted = Cache.insert c ~line Modified in
      let base =
        if t.dropped_dirty then t.cost.Cost_model.remote_dirty_ns
        else t.cost.Cost_model.cache_miss_ns
      in
      base
      + (dropped * t.cost.Cost_model.invalidate_ns)
      + eviction_cost t evicted

let locked_rmw t ~port ~addr =
  let c = cache t port in
  let line = Cache.line_addr c addr in
  let stats = Cache.stats c in
  stats.locked_rmws <- stats.locked_rmws + 1;
  (* No cache residency for locks: drop every cached copy, including our
     own, and go straight to memory with the bus locked. *)
  let dropped = invalidate_others t ~port ~line in
  stats.invalidations_caused <- stats.invalidations_caused + dropped;
  if Cache.invalidate c ~line <> Invalid then count_invalidation t line;
  t.cost.Cost_model.bus_locked_rmw_ns

let dma_access t ~write ~addr ~len =
  if len <= 0 then 0
  else begin
    match t.caches with
    | [||] -> 0
    | cs ->
        let line_bytes = Cache.line_bytes cs.(0) in
        let first = addr land lnot (line_bytes - 1) in
        let stall = ref 0 in
        let line = ref first in
        while !line < addr + len do
          if write then begin
            ignore (invalidate_others t ~port:(-1) ~line:!line : int);
            if t.dropped_dirty then
              stall := !stall + t.cost.Cost_model.writeback_ns
          end
          else if downgrade_others t ~port:(-1) ~line:!line then
            stall := !stall + t.cost.Cost_model.writeback_ns;
          line := !line + line_bytes
        done;
        !stall
  end

let invalidations_in t ~lo ~hi =
  Hashtbl.fold
    (fun line n acc -> if line >= lo && line < hi then acc + n else acc)
    t.line_invalidations 0

let hot_lines t ~limit =
  let all =
    Hashtbl.fold (fun line n acc -> (line, n) :: acc) t.line_invalidations []
  in
  let sorted = List.sort (fun (_, a) (_, b) -> Int.compare b a) all in
  List.filteri (fun i _ -> i < limit) sorted

let flush_all t = Array.iter (fun c -> ignore (Cache.flush c)) t.caches

let reset_stats t =
  Array.iter Cache.reset_stats t.caches;
  Hashtbl.reset t.line_invalidations
