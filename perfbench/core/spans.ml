type clock = { vt : unit -> int; host : unit -> int; steps : unit -> int }

type agg = {
  mutable calls : int;
  mutable vt : int;
  mutable host : int;
  mutable steps : int;
  mutable self_vt : int;
  mutable self_host : int;
  mutable self_steps : int;
}

type frame = {
  id : int;
  name : int;
  msg : int;
  vt0 : int;
  host0 : int;
  steps0 : int;
  mutable child_vt : int;
  mutable child_host : int;
  mutable child_steps : int;
}

(* Retained spans, one flat int array of [fields] per span. *)
let fields = 9

type t = {
  clock : clock;
  names : string array;
  aggs : agg array;
  cap : int;
  mutable store : int array;
  mutable next : int;
  counters : (string, int ref) Hashtbl.t;
}

type actor = { rec_ : t; mutable stack : frame list; mutable current : int }

let create ~names ~cap clock =
  {
    clock;
    names;
    aggs =
      Array.init (Array.length names) (fun _ ->
          {
            calls = 0;
            vt = 0;
            host = 0;
            steps = 0;
            self_vt = 0;
            self_host = 0;
            self_steps = 0;
          });
    cap;
    store = Array.make (fields * min cap 4096) 0;
    next = 0;
    counters = Hashtbl.create 16;
  }

let actor t = { rec_ = t; stack = []; current = 0 }
let owner a = a.rec_
let current a = a.current
let set_current a msg = a.current <- msg

let enter a name ~msg =
  let t = a.rec_ in
  let id = t.next in
  t.next <- id + 1;
  a.stack <-
    {
      id;
      name;
      msg;
      vt0 = t.clock.vt ();
      host0 = t.clock.host ();
      steps0 = t.clock.steps ();
      child_vt = 0;
      child_host = 0;
      child_steps = 0;
    }
    :: a.stack

let retain t f ~parent ~vt1 ~host1 ~steps1 =
  if f.id < t.cap then begin
    let need = fields * (f.id + 1) in
    if need > Array.length t.store then begin
      let bigger =
        Array.make (min (fields * t.cap) (max need (2 * Array.length t.store))) 0
      in
      Array.blit t.store 0 bigger 0 (Array.length t.store);
      t.store <- bigger
    end;
    let o = fields * f.id in
    t.store.(o) <- f.name;
    t.store.(o + 1) <- parent;
    t.store.(o + 2) <- f.msg;
    t.store.(o + 3) <- f.vt0;
    t.store.(o + 4) <- vt1;
    t.store.(o + 5) <- f.host0;
    t.store.(o + 6) <- host1;
    t.store.(o + 7) <- f.steps0;
    t.store.(o + 8) <- steps1
  end

let leave a =
  match a.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
      let t = a.rec_ in
      let vt1 = t.clock.vt () and host1 = t.clock.host () in
      let steps1 = t.clock.steps () in
      let dvt = vt1 - f.vt0
      and dhost = host1 - f.host0
      and dsteps = steps1 - f.steps0 in
      let g = t.aggs.(f.name) in
      g.calls <- g.calls + 1;
      g.vt <- g.vt + dvt;
      g.host <- g.host + dhost;
      g.steps <- g.steps + dsteps;
      g.self_vt <- g.self_vt + dvt - f.child_vt;
      g.self_host <- g.self_host + dhost - f.child_host;
      g.self_steps <- g.self_steps + dsteps - f.child_steps;
      let parent =
        match rest with
        | [] -> -1
        | p :: _ ->
            p.child_vt <- p.child_vt + dvt;
            p.child_host <- p.child_host + dhost;
            p.child_steps <- p.child_steps + dsteps;
            p.id
      in
      retain t f ~parent ~vt1 ~host1 ~steps1;
      a.stack <- rest

let agg t name = t.aggs.(name)
let count t = t.next

let bump t key n =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r + n
  | None -> Hashtbl.add t.counters key (ref n)

let counter t key =
  match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let write t oc =
  output_string oc
    "id\tname\tparent\tmsg\tvt_start\tvt_end\thost_start\thost_end\tsteps_start\tsteps_end\n";
  for id = 0 to min t.next t.cap - 1 do
    let o = fields * id in
    let s = t.store in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n" id
      t.names.(s.(o)) s.(o + 1) s.(o + 2) s.(o + 3) s.(o + 4) s.(o + 5)
      s.(o + 6) s.(o + 7) s.(o + 8)
  done
