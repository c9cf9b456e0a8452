type t = {
  mutable attempted : int;
  mutable shed : int;
  mutable drops : int;
  mutable backlog : int;
  mutable mismatches : int;
  mutable lost : int;
  mutable errors : int;
  mutable stalls : int;
  mutable violations : int;
}

let create () =
  {
    attempted = 0;
    shed = 0;
    drops = 0;
    backlog = 0;
    mismatches = 0;
    lost = 0;
    errors = 0;
    stalls = 0;
    violations = 0;
  }

let add ~into t =
  into.attempted <- into.attempted + t.attempted;
  into.shed <- into.shed + t.shed;
  into.drops <- into.drops + t.drops;
  into.backlog <- into.backlog + t.backlog;
  into.mismatches <- into.mismatches + t.mismatches;
  into.lost <- into.lost + t.lost;
  into.errors <- into.errors + t.errors;
  into.stalls <- into.stalls + t.stalls;
  into.violations <- into.violations + t.violations

let broken t = t.mismatches + t.lost + t.errors + t.stalls + t.violations
let failed t = t.shed + t.drops + t.backlog + broken t

let failed_ratio t =
  if t.attempted = 0 then 0.
  else float_of_int (failed t) /. float_of_int t.attempted

let pp ppf t =
  Format.fprintf ppf
    "attempted %d, shed %d, drops %d, backlog %d, mismatches %d, lost %d, \
     errors %d, stalls %d, violations %d"
    t.attempted t.shed t.drops t.backlog t.mismatches t.lost t.errors t.stalls
    t.violations
