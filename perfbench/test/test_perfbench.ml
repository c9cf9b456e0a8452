(* The benchmark's own rules, on synthetic inputs. *)

open Perfbench_core

let feq = Alcotest.float 1e-9

let test_tail_level () =
  let lvl = Alcotest.(option (float 1e-9)) in
  Alcotest.check lvl "1000 samples read to p99" (Some 99.) (Pct.tail_level 1000);
  Alcotest.check lvl "999 samples stop at p90" (Some 90.) (Pct.tail_level 999);
  Alcotest.check lvl "10000 read to p99.9" (Some 99.9) (Pct.tail_level 10_000);
  Alcotest.check lvl "100000 read to p99.99" (Some 99.99)
    (Pct.tail_level 100_000);
  Alcotest.check lvl "20 samples: median only" (Some 50.) (Pct.tail_level 20);
  Alcotest.check lvl "19 samples: nothing" None (Pct.tail_level 19);
  Alcotest.(check int) "p99 of 1000 has ten beyond" 10 (Pct.beyond 1000 99.)

let test_interp () =
  let a = Array.init 1000 (fun i -> i + 1) in
  let p = Alcotest.float 1e-6 in
  Alcotest.check p "distinct samples: nearest rank p50" 500. (Pct.interp a 50.);
  Alcotest.check p "distinct samples: nearest rank p99" 990. (Pct.interp a 99.);
  Alcotest.check p "p100 is the maximum" 1000. (Pct.interp a 100.);
  Alcotest.check p "a single sample" 7. (Pct.interp [| 7 |] 99.);
  (* On a 10 ns grid the median moves with the mass on each point. *)
  let grid lo hi = Array.append (Array.make lo 100) (Array.make hi 110) in
  Alcotest.check p "half below: the lower point" 100. (Pct.interp (grid 50 50) 50.);
  Alcotest.check p "40% below: 1/6 of the way up" (100. +. (10. /. 6.))
    (Pct.interp (grid 40 60) 50.);
  Alcotest.check p "a failed request is infinitely late" infinity
    (Pct.interp [| 1; 2; max_int |] 99.);
  Alcotest.check p "unless the percentile stays below it" 1.5
    (Pct.interp [| 1; 2; 3; max_int |] 37.5)

(* A clock the test moves by hand. *)
let clock () =
  let vt = ref 0 and host = ref 0 and steps = ref 0 in
  let at v h s =
    vt := v;
    host := h;
    steps := s
  in
  ( { Spans.vt = (fun () -> !vt); host = (fun () -> !host); steps = (fun () -> !steps) },
    at )

let test_self_time () =
  let c, at = clock () in
  let t = Spans.create ~names:[| "a"; "b"; "c"; "d"; "x" |] ~cap:3 c in
  let p = Spans.actor t and q = Spans.actor t in
  (* p: a [0,100] holds b [10,30] and c [40,50]; c holds d [42,45].
     q: x [20,60] interleaves with p and must not count as p's child. *)
  at 0 0 0;
  Spans.enter p 0 ~msg:1;
  at 10 1000 1;
  Spans.enter p 1 ~msg:1;
  at 20 2000 2;
  Spans.enter q 4 ~msg:2;
  at 30 3000 3;
  Spans.leave p;
  at 40 4000 4;
  Spans.enter p 2 ~msg:1;
  at 42 4200 5;
  Spans.enter p 3 ~msg:1;
  at 45 4500 6;
  Spans.leave p;
  at 50 5000 7;
  Spans.leave p;
  at 60 6000 8;
  Spans.leave q;
  at 100 10000 10;
  Spans.leave p;
  let self i = (Spans.agg t i).Spans.self_vt in
  Alcotest.(check (list int)) "self vt" [ 70; 20; 7; 3; 40 ]
    (List.map self [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check int) "self host" 7000 (Spans.agg t 0).self_host;
  Alcotest.(check int) "self steps" 5 (Spans.agg t 0).self_steps;
  Alcotest.(check int) "whole span" 100 (Spans.agg t 0).vt;
  Alcotest.(check int) "all spans counted past the cap" 5 (Spans.count t);
  let file = Filename.temp_file "spans" ".tsv" in
  let oc = open_out file in
  Spans.write t oc;
  close_out oc;
  let ic = open_in file in
  let rows = ref [] in
  (try
     while true do
       rows := input_line ic :: !rows
     done
   with End_of_file -> close_in ic);
  Sys.remove file;
  Alcotest.(check int) "header plus the retained spans" 4 (List.length !rows);
  Alcotest.(check string) "b's parent is a" "1\tb\t0\t1\t10\t30\t1000\t3000\t1\t3"
    (List.nth (List.rev !rows) 2)

let rung ?(p99 = 100.) ?(shed = 0) ?(drops = 0) ?(growth = 0) rate =
  { Ladder.rate; p99_us = p99; shed; drops; backlog_growth = growth }

let test_max_rate () =
  let pick = Ladder.max_rate_at_p99 ~limit_us:1000. ~tolerance:64 in
  let r = Alcotest.(option (float 1e-9)) in
  Alcotest.check r "highest clean rung" (Some 400.)
    (pick [ rung 100.; rung 200.; rung 400.; rung ~p99:1500. 800. ]);
  Alcotest.check r "a shed rung does not count" (Some 200.)
    (pick [ rung 100.; rung 200.; rung ~shed:1 400. ]);
  Alcotest.check r "nor a dropping one" (Some 100.)
    (pick [ rung 100.; rung ~drops:3 200. ]);
  Alcotest.check r "nor a growing backlog" (Some 100.)
    (pick [ rung 100.; rung ~growth:65 200.; rung ~growth:64 50. ]);
  Alcotest.check r "limit is inclusive" (Some 300.)
    (pick [ rung ~p99:1000. 300. ]);
  Alcotest.check r "a failed p99 never qualifies" None
    (pick [ rung ~p99:infinity 100. ]);
  Alcotest.check r "an unordered ladder still takes the highest" (Some 500.)
    (pick [ rung 500.; rung ~p99:2000. 900.; rung 100. ])

let test_tally () =
  let t = Tally.create () in
  t.attempted <- 1000;
  t.shed <- 10;
  t.drops <- 5;
  t.backlog <- 20;
  Alcotest.(check int) "overload is not broken" 0 (Tally.broken t);
  Alcotest.check feq "but it fails" 0.035 (Tally.failed_ratio t);
  let u = Tally.create () in
  u.attempted <- 1000;
  u.mismatches <- 1;
  u.lost <- 2;
  u.errors <- 3;
  u.stalls <- 1;
  u.violations <- 1;
  Alcotest.(check int) "every correctness failure is broken" 8 (Tally.broken u);
  Tally.add ~into:t u;
  Alcotest.(check int) "sums" 2000 t.attempted;
  Alcotest.(check int) "failed adds both views" 43 (Tally.failed t);
  Alcotest.check feq "ratio over everything attempted" 0.0215
    (Tally.failed_ratio t);
  Alcotest.check feq "nothing attempted" 0. (Tally.failed_ratio (Tally.create ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "rules",
        [
          Alcotest.test_case "tail level" `Quick test_tail_level;
          Alcotest.test_case "interpolated percentile" `Quick test_interp;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "max rate at p99" `Quick test_max_rate;
          Alcotest.test_case "failure tally" `Quick test_tally;
        ] );
    ]
