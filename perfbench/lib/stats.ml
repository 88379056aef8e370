(* Sample statistics for the benchmark's timings.

   Percentiles are nearest-rank: the reported value is always a sample
   that was actually observed, so latencies quantised by the service's
   250 ms progress tick stay on their steps instead of being
   interpolated between them. *)

(* Percentiles are handled in tenths of a percent so that ranks are
   exact integer arithmetic: 900 is p90, 999 is p99.9. *)
let rank ~permille n = ((permille * n) + 999) / 1000

let percentile_permille permille = function
  | [] -> invalid_arg "Stats.percentile: no samples"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (rank ~permille n - 1)))

let percentile p xs =
  percentile_permille (int_of_float (Float.round (p *. 10.))) xs

let median xs = percentile 50. xs

(* The percentiles a tail may be reported at, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

(* The highest percentile of [ladder] that still has at least [beyond]
   samples strictly above its rank among [n] samples — the most
   extreme tail the sample count supports.  p90 needs 100 samples,
   p99 needs 1000.  [None] below 20 samples. *)
let tail_percentile ?(beyond = 10) n =
  List.find_opt (fun pm -> n - rank ~permille:pm n >= beyond) ladder
  |> Option.map (fun pm -> float_of_int pm /. 10.)
