(* Percentile levels in hundredths of a percent, so the rank arithmetic
   stays in integers and p99 of 1000 samples has exactly ten beyond it. *)
let levels = [ 9999; 9990; 9900; 9000; 5000 ]
let rank n q = ((n * q) + 9999) / 10000
let hundredths p = int_of_float (Float.round (p *. 100.))
let beyond n p = n - rank n (hundredths p)

let tail_level n =
  List.find_map
    (fun q -> if n - rank n q >= 10 then Some (float_of_int q /. 100.) else None)
    levels

let interp sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Pct.interp: no samples";
  let target = p /. 100. in
  (* Walk distinct values, keeping the previous one and its CDF. *)
  let rec go i prev_v prev_f =
    let v = sorted.(i) in
    let j = ref i in
    while !j < n && sorted.(!j) = v do
      incr j
    done;
    let fv = float_of_int !j /. float_of_int n in
    if fv >= target || !j = n then
      if v = max_int then infinity
      else if i = 0 then float_of_int v
      else
        float_of_int prev_v
        +. (target -. prev_f) /. (fv -. prev_f) *. float_of_int (v - prev_v)
    else go !j v fv
  in
  go 0 0 0.
