type t = {
  enc : Codec.encoder;
  path : string;
  mutable machines : Obs.t list; (* newest first *)
  mutable events : int;
  mutable summary : Json.t option;
  mutable closed : bool;
}

let create ?(meta = []) ~path () =
  let enc = Codec.to_channel (open_out_bin path) in
  Codec.write_meta enc meta;
  { enc; path; machines = []; events = 0; summary = None; closed = false }

let record t ~now ~pid ev =
  if not t.closed then begin
    Codec.write_event t.enc ~now ~pid ev;
    t.events <- t.events + 1
  end

let attach t obs =
  if not (List.exists (fun o -> Obs.id o = Obs.id obs) t.machines) then begin
    t.machines <- obs :: t.machines;
    let pid = Obs.id obs in
    (* Spill whatever the ring already holds (mid-run attach), then
       stream every later event through a watcher — so a wrapping ring
       loses nothing once the sink is attached. *)
    List.iter
      (fun (e : Tracer.entry) -> record t ~now:e.ts ~pid e.ev)
      (Tracer.to_list (Obs.tracer obs));
    Obs.add_watcher obs (fun now ev -> record t ~now ~pid ev)
  end

let set_summary t summary = t.summary <- Some summary
let events_written t = t.events
let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    let machines =
      List.sort (fun a b -> compare (Obs.id a) (Obs.id b)) t.machines
    in
    Codec.write_trailer t.enc
      ~machines:(List.map (fun o -> (Obs.id o, Obs.label o)) machines)
      ~summary:t.summary;
    close_out (Codec.channel t.enc)
  end
