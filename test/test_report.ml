(* The evaluation-reproduction machinery: line counting over tagged
   sources, the Table 2 matrix and Figure 5 diagram shape checks against
   the paper, and end-to-end verification of every registry entry. *)

open Fcsl_core
open Fcsl_report

let check = Alcotest.(check bool)

let test_registry_complete () =
  Alcotest.(check int) "eleven Table 1 rows" 11 (List.length Registry.all);
  let names = List.map (fun c -> c.Registry.c_name) Registry.all in
  List.iter
    (fun expected ->
      check ("row " ^ expected) true (List.mem expected names))
    [
      "CAS-lock"; "Ticketed lock"; "CG increment"; "CG allocator";
      "Pair snapshot"; "Treiber stack"; "Spanning tree"; "Flat combiner";
      "Seq. stack"; "FC-stack"; "Prod/Cons";
    ]

let test_loc_counting () =
  List.iter
    (fun (c : Registry.case) ->
      let counts = Loc_stats.counts_of_case c in
      check
        (c.Registry.c_name ^ " has counted lines")
        true
        (Loc_stats.total counts > 0);
      check
        (c.Registry.c_name ^ " has a Main section")
        true
        (counts.Loc_stats.main > 0))
    Registry.all;
  (* library-introducing rows have Conc/Acts/Stab sections; pure clients
     have none — the "-" pattern of the paper's Table 1 *)
  let has_conc name =
    match Registry.find name with
    | Some c -> (Loc_stats.counts_of_case c).Loc_stats.conc > 0
    | None -> false
  in
  List.iter
    (fun name -> check (name ^ " introduces a concurroid") true (has_conc name))
    [ "CAS-lock"; "Ticketed lock"; "Pair snapshot"; "Treiber stack";
      "Spanning tree"; "Flat combiner" ];
  List.iter
    (fun name ->
      check (name ^ " reuses concurroids only") false (has_conc name))
    [ "CG increment"; "CG allocator"; "Seq. stack"; "FC-stack"; "Prod/Cons" ]

let test_markers_wellformed () =
  (* every tagged case file closes with an End marker and contains a
     Main marker *)
  match Loc_stats.repo_root () with
  | None -> Alcotest.fail "repo root not found"
  | Some root ->
    List.iter
      (fun (c : Registry.case) ->
        let path = Filename.concat root c.Registry.c_file in
        let content =
          let ic = open_in path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        let contains needle =
          let nl = String.length needle and cl = String.length content in
          let rec go i =
            i + nl <= cl && (String.sub content i nl = needle || go (i + 1))
          in
          go 0
        in
        check (c.Registry.c_file ^ " has Main marker") true
          (contains "(*!Main*)");
        check (c.Registry.c_file ^ " has End marker") true
          (contains "(*!End*)"))
      Registry.all

let test_table2_matches () =
  check "Table 2 matches the paper" true (Tables.table2_matches_paper ())

let test_fig5_matches () =
  check "Figure 5 matches the paper" true (Tables.fig5_matches_paper ())

let test_transitive_uses () =
  (* Seq. stack inherits the lock dependency through the Treiber
     stack's allocator *)
  match Registry.find "Seq. stack" with
  | Some c ->
    check "inherits lock interface" true
      (List.mem Registry.Lock_interface (Registry.transitive_uses c))
  | None -> Alcotest.fail "Seq. stack missing"

(* The full Table 1 run: every row verifies.  This is the repo's
   headline end-to-end check (also exercised by the bench harness).

   The registry is then swept twice more, and what an armed budget and
   a journal cost is checked as counts that do not depend on the host:
   (a) under a budget no row can exhaust, and under a fresh journal per
       row, every verdict summary equals the plain sweep's;
   (b) the budget charges one tick per explored configuration;
   (c) with a group-commit interval no run reaches, the journal's only
       fsync is the one that makes each spec verdict durable: a row
       fsyncs exactly once per [Spec_done] record.
   (b) holds for refutations too: no initial state past the first
   failing one is explored.  The per-row journal counts are printed
   last (the test's output log, or the terminal with [--verbose]). *)

let summary (r : Verify.report) =
  ( r.Verify.spec_name, Verify.ok r, r.Verify.tier, r.Verify.initial_states,
    r.Verify.outcomes, r.Verify.diverged, r.Verify.complete, r.Verify.states )

let untripped_budget =
  Budget.limits ~deadline_s:3600.0 ~max_states:max_int
    ~max_major_words:max_int ()

(* One row under a fresh journal whose writes and fsyncs are counted:
   the reports, the records read back, the bytes written and the
   fsyncs. *)
let journaled_row (c : Registry.case) =
  let bytes = ref 0 and fsyncs = ref 0 in
  let io =
    {
      Journal.real_io with
      Journal.io_write =
        (fun fd s pos len ->
          let k = Journal.real_io.Journal.io_write fd s pos len in
          bytes := !bytes + k;
          k);
      io_fsync =
        (fun fd ->
          incr fsyncs;
          Journal.real_io.Journal.io_fsync fd);
    }
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fcsl-test-report-%d" (Unix.getpid ()))
  in
  let j = Journal.openj ~fsync:(Journal.Interval 3600.) ~io dir in
  let reports =
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () -> Verify.with_engine ~journal:(Some j) c.Registry.c_verify)
  in
  let records, _ = Journal.read dir in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  (reports, records, !bytes, !fsyncs)

let test_all_rows_verify () =
  let counts =
    List.map
      (fun (c : Registry.case) ->
        let name = c.Registry.c_name in
        let reports = c.Registry.c_verify () in
        List.iter
          (fun r ->
            check (Fmt.str "%s: %a" name Verify.pp_report r) true (Verify.ok r))
          reports;
        let plain = List.map summary reports in
        let budgeted =
          Verify.with_engine ~budget:untripped_budget c.Registry.c_verify
        in
        check (name ^ ": verdicts equal under a budget") true
          (List.map summary budgeted = plain);
        List.iter
          (fun (r : Verify.report) ->
            Alcotest.(check (option int))
              (Fmt.str "%s: %s: one budget tick per configuration" name
                 r.Verify.spec_name)
              (Some r.Verify.states)
              (Option.map (fun s -> s.Budget.st_states) r.Verify.budget))
          budgeted;
        let journaled, records, bytes, fsyncs = journaled_row c in
        check (name ^ ": verdicts equal under a journal") true
          (List.map summary journaled = plain);
        let verdicts =
          List.length
            (List.filter
               (function Journal.Spec_done _ -> true | _ -> false)
               records)
        in
        Alcotest.(check int) (name ^ ": one fsync per Spec_done") verdicts
          fsyncs;
        (name, List.length records, bytes, verdicts))
      Registry.all
  in
  Fmt.pr "%-14s %8s %9s %8s@." "Program" "records" "bytes" "fsyncs";
  List.iter
    (fun (name, records, bytes, fsyncs) ->
      Fmt.pr "%-14s %8d %9d %8d@." name records bytes fsyncs)
    counts

let suite =
  [
    Alcotest.test_case "registry covers Table 1" `Quick test_registry_complete;
    Alcotest.test_case "line counting" `Quick test_loc_counting;
    Alcotest.test_case "source markers well-formed" `Quick
      test_markers_wellformed;
    Alcotest.test_case "Table 2 matches the paper" `Quick test_table2_matches;
    Alcotest.test_case "Figure 5 matches the paper" `Quick test_fig5_matches;
    Alcotest.test_case "transitive concurroid usage" `Quick
      test_transitive_uses;
    Alcotest.test_case "all Table 1 rows verify" `Slow test_all_rows_verify;
  ]
