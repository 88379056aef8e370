(* Regeneration of the paper's evaluation artifacts:

   - Table 1: per-program statistics — Libs/Conc/Acts/Stab/Main/Total
     line counts from the tagged sources, and the "Build" column
     reproduced as the wall-clock time of the program's mechanized
     verification.
   - Table 2: which primitive concurroids each program employs
     (with the interchangeable-lock "L" marks).
   - Figure 5: the dependency diagram between the verified libraries. *)

open Fcsl_core

(* Table 1. *)

type row1 = {
  r_name : string;
  r_counts : Loc_stats.counts;
  r_verify_time : float; (* seconds; the Build-time analogue *)
  r_reports : Verify.report list;
}

let table1_row (c : Registry.case) : row1 =
  let counts = Loc_stats.counts_of_case c in
  let t0 = Unix.gettimeofday () in
  let reports = c.c_verify () in
  let t1 = Unix.gettimeofday () in
  { r_name = c.c_name; r_counts = counts; r_verify_time = t1 -. t0;
    r_reports = reports }

(* Rows are independent verification runs, so they fan out over a
   domain pool; per-row times remain meaningful (each row runs on one
   domain), the total wall clock shrinks. *)
let table1 ?(jobs = 1) () = Pool.map ~jobs table1_row Registry.all

let pp_time ppf t =
  if t < 1.0 then Fmt.pf ppf "%4.0fms" (t *. 1000.)
  else Fmt.pf ppf "%5.1fs" t

(* The worst degradation tier across a row's reports: a row is only as
   trustworthy as its weakest verdict (Sampled < Exhaustive). *)
let row_tier (r : row1) : Verify.tier =
  if List.exists (fun rep -> rep.Verify.tier <> Verify.Exhaustive) r.r_reports
  then Verify.Sampled
  else Verify.Exhaustive

(* Configurations explored across a row's reports — the column that
   makes the cost of a row visible. *)
let row_states (r : row1) : int =
  List.fold_left (fun acc rep -> acc + rep.Verify.states) 0 r.r_reports

(* The exploration counters aggregated across a row's reports (memo
   hits/misses sum, bucket depth maxes, minor words sum); [None] when
   every report lacks counters (sampled or journal-replayed
   verdicts). *)
let row_expl (r : row1) : Verify.expl_stats option =
  List.fold_left
    (fun acc rep -> Verify.merge_expl acc rep.Verify.expl)
    None r.r_reports

let pp_table1 ppf rows =
  Fmt.pf ppf "%-14s %5s %5s %5s %5s %5s %6s %8s %9s %-10s %s@." "Program"
    "Libs" "Conc" "Acts" "Stab" "Main" "Total" "Verify" "States" "Tier"
    "Status";
  List.iter
    (fun r ->
      let c = r.r_counts in
      let dash n = if n = 0 then "-" else string_of_int n in
      let ok = List.for_all Verify.ok r.r_reports in
      let degraded = List.exists Verify.degraded r.r_reports in
      Fmt.pf ppf "%-14s %5s %5s %5s %5s %5s %6d %a %9d %-10s %s@." r.r_name
        (dash c.Loc_stats.libs) (dash c.Loc_stats.conc)
        (dash c.Loc_stats.acts) (dash c.Loc_stats.stab)
        (dash c.Loc_stats.main) (Loc_stats.total c) pp_time r.r_verify_time
        (row_states r)
        (Verify.tier_name (row_tier r))
        (if not ok then "FAILED"
         else if degraded then "DEGRADED"
         else "verified"))
    rows;
  if List.exists (fun r -> row_tier r <> Verify.Exhaustive) rows then
    Fmt.pf ppf
      "(mixed tiers: rows below exhaustive carry budget-degraded \
       verdicts — see docs/ROBUSTNESS.md)@."

(* The --stats companion table: the always-on exploration counters per
   row, for eyeballing where memoization actually bites.  A
   separate printer (not an option on [pp_table1]) because the plain
   table is passed around as a first-class [%a] value. *)
let pp_table1_stats ppf rows =
  Fmt.pf ppf "%-14s %10s %10s %7s %12s@." "Program" "MemoHit" "MemoMiss"
    "Bucket" "MinorWords";
  List.iter
    (fun r ->
      match row_expl r with
      | None -> Fmt.pf ppf "%-14s %10s %10s %7s %12s@." r.r_name "-" "-" "-" "-"
      | Some x ->
        Fmt.pf ppf "%-14s %10d %10d %7d %12.0f@." r.r_name
          x.Verify.x_memo_hits x.Verify.x_memo_misses x.Verify.x_max_bucket
          x.Verify.x_minor_words)
    rows

(* Table 2. *)

let columns =
  Registry.
    [ Priv; CLock; TLock; Read_pair; Treiber; Span_tree; Flat_combine ]

let column_header = function
  | Registry.Priv -> "Priv"
  | Registry.CLock -> "CLock"
  | Registry.TLock -> "TLock"
  | Registry.Read_pair -> "Pair"
  | Registry.Treiber -> "Treib"
  | Registry.Span_tree -> "Span"
  | Registry.Flat_combine -> "FComb"
  | Registry.Lock_interface -> "L"

(* A cell is "x" for direct use, "L" for use of either lock through the
   abstract interface, blank otherwise. *)
let cell uses col =
  match col with
  | Registry.CLock | Registry.TLock ->
    if List.mem col uses then "x"
    else if List.mem Registry.Lock_interface uses then "L"
    else ""
  | _ -> if List.mem col uses then "x" else ""

let pp_table2 ppf () =
  Fmt.pf ppf "%-14s" "Program";
  List.iter (fun col -> Fmt.pf ppf " %5s" (column_header col)) columns;
  Fmt.pf ppf "@.";
  List.iter
    (fun (c : Registry.case) ->
      let uses = Registry.transitive_uses c in
      Fmt.pf ppf "%-14s" c.Registry.c_name;
      List.iter (fun col -> Fmt.pf ppf " %5s" (cell uses col)) columns;
      Fmt.pf ppf "@.")
    Registry.all

(* The paper's Table 2, for the shape comparison in EXPERIMENTS.md. *)
let paper_table2 : (string * string list) list =
  [
    ("CAS-lock", [ "Priv"; "CLock" ]);
    ("Ticketed lock", [ "Priv"; "TLock" ]);
    ("CG increment", [ "Priv"; "L" ]);
    ("CG allocator", [ "Priv"; "L" ]);
    ("Pair snapshot", [ "Pair" ]);
    ("Treiber stack", [ "Priv"; "L"; "Treib" ]);
    ("Spanning tree", [ "Priv"; "Span" ]);
    ("Flat combiner", [ "Priv"; "L"; "FComb" ]);
    ("Seq. stack", [ "Priv"; "L"; "Treib" ]);
    ("FC-stack", [ "Priv"; "L"; "FComb" ]);
    ("Prod/Cons", [ "Priv"; "L"; "Treib" ]);
  ]

(* Our matrix rendered in the paper's vocabulary, for equality checking
   against [paper_table2]. *)
let our_table2 () : (string * string list) list =
  List.map
    (fun (c : Registry.case) ->
      let uses = Registry.transitive_uses c in
      let marks =
        List.filter_map
          (fun col ->
            match cell uses col with
            | "x" -> Some (column_header col)
            | "L" -> Some "L"
            | _ -> None)
          columns
      in
      (* collapse the two lock columns' L into one mark, like the paper *)
      let marks = List.sort_uniq String.compare marks in
      (c.Registry.c_name, marks))
    Registry.all

let table2_matches_paper () =
  List.for_all
    (fun (name, marks) ->
      match List.assoc_opt name paper_table2 with
      | Some expected ->
        List.sort String.compare expected = List.sort String.compare marks
      | None -> false)
    (our_table2 ())

(* Figure 5: the dependency diagram. *)

let fig5_edges () =
  Registry.interface_edges
  @ List.concat_map
      (fun (c : Registry.case) ->
        List.map (fun d -> (d, c.Registry.c_name)) c.Registry.c_deps)
      Registry.all

(* The paper's diagram, as (from, to) edges. *)
let paper_fig5 : (string * string) list =
  [
    ("CAS-lock", "Abstract lock");
    ("Ticketed lock", "Abstract lock");
    ("Abstract lock", "CG increment");
    ("Abstract lock", "CG allocator");
    ("CG allocator", "Treiber stack");
    ("Abstract lock", "Flat combiner");
    ("CG allocator", "Flat combiner");
    ("Treiber stack", "Seq. stack");
    ("Treiber stack", "Prod/Cons");
    ("Flat combiner", "FC-stack");
  ]

let fig5_matches_paper () =
  let norm es = List.sort_uniq Stdlib.compare es in
  norm (fig5_edges ()) = norm paper_fig5

let pp_fig5 ppf () =
  Fmt.pf ppf "digraph fcsl_deps {@.";
  List.iter
    (fun (a, b) -> Fmt.pf ppf "  \"%s\" -> \"%s\";@." a b)
    (fig5_edges ());
  Fmt.pf ppf "}@."

let pp_fig5_ascii ppf () =
  List.iter (fun (a, b) -> Fmt.pf ppf "  %-14s --> %s@." a b) (fig5_edges ())
