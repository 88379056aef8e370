(* Deadlock & progress analysis: the lock-order graph machinery, the
   registry rows' static cleanliness, both injected scenarios flagged by
   the static pass AND the scheduler's stuck-state detector with
   matching located lock names, the registry-wide static/dynamic
   soundness differential (under 1 and 4 domains), the certified-order
   consistency property, and the CLI's exit-code taxonomy. *)

open Fcsl_core
open Fcsl_analysis
module Registry = Fcsl_report.Registry

let check = Alcotest.(check bool)

let mk_lock ?(acquires = []) ?(releases = []) name =
  {
    Deadlock.lk_label = Label.make ("dl_t_" ^ name);
    lk_name = name;
    lk_conc = "CLock";
    lk_acquires = acquires;
    lk_releases = releases;
  }

let script thread ?(exit = Deadlock.Returns) steps =
  { Deadlock.sc_thread = thread; sc_steps = steps; sc_exit = exit }

(* ------------------------------------------------------------------ *)
(* The graph machinery on declared scripts.                           *)
(* ------------------------------------------------------------------ *)

let test_graph_machinery () =
  let locks = [ mk_lock "A"; mk_lock "B" ] in
  (* Nested same-order acquisition: acyclic, order certified. *)
  let v =
    Deadlock.analyze_scripts ~case:"nested" ~locks
      [
        script "t0"
          [ S_acquire "A"; S_acquire "B"; S_release "B"; S_release "A" ];
        script "t1"
          [ S_acquire "A"; S_acquire "B"; S_release "B"; S_release "A" ];
      ]
  in
  check "nested same-order is clean" true (Deadlock.clean v);
  Alcotest.(check (option (list string)))
    "order A < B" (Some [ "A"; "B" ]) v.Deadlock.v_order;
  check "no cycles" true (v.Deadlock.v_cycles = []);
  (* AB/BA inversion: one cycle, no certified order. *)
  let v =
    Deadlock.analyze_scripts ~case:"inverted" ~locks
      [
        script "t0"
          [ S_acquire "A"; S_acquire "B"; S_release "B"; S_release "A" ];
        script "t1"
          [ S_acquire "B"; S_acquire "A"; S_release "A"; S_release "B" ];
      ]
  in
  check "inversion flagged" false (Deadlock.clean v);
  Alcotest.(check (list (list string)))
    "the AB/BA cycle" [ [ "A"; "B" ] ] v.Deadlock.v_cycles;
  check "no order under a cycle" true (v.Deadlock.v_order = None);
  (* Non-reentrant re-acquisition: a length-1 cycle. *)
  let v =
    Deadlock.analyze_scripts ~case:"reentry" ~locks
      [ script "t0" [ S_acquire "A"; S_acquire "A" ] ]
  in
  check "re-entry is a self-cycle" true
    (List.mem [ "A" ] v.Deadlock.v_cycles);
  (* Leak through a hide-scope exit: must-release. *)
  let v =
    Deadlock.analyze_scripts ~case:"leak" ~locks
      [ script "t0" ~exit:Deadlock.Hide_exit [ S_acquire "A" ] ]
  in
  check "leak flagged" false (Deadlock.clean v);
  check "must-release rule fired" true
    (List.exists
       (fun (f : Diag.finding) -> f.Diag.f_rule = Deadlock.rule_must_release)
       v.Deadlock.v_findings);
  (* Balanced release: clean again. *)
  let v =
    Deadlock.analyze_scripts ~case:"balanced" ~locks
      [ script "t0" [ S_acquire "A"; S_release "A" ] ]
  in
  check "balanced is clean" true (Deadlock.clean v)

(* The Prog walk: visible spine classified, opaque continuations mark
   the path incomplete (so no must-release false positives). *)
let test_prog_walk () =
  let locks =
    [ mk_lock ~acquires:[ "take_A" ] ~releases:[ "drop_A" ] "A" ]
  in
  let act name =
    Prog.act
      (Action.make ~name
         ~safe:(fun _ -> true)
         ~step:(fun st -> ((), st))
         ~phys:(fun _ -> Action.Id)
         ())
  in
  let paths =
    Deadlock.paths_of_prog ~locks ~name:"w"
      (Prog.seq (act "take_A") (act "drop_A"))
  in
  check "one path" true (List.length paths = 1);
  let p = List.hd paths in
  check "bind makes the path incomplete" false p.Deadlock.th_complete;
  check "visible acquire classified" true
    (List.exists
       (fun e -> Deadlock.event_lock e = "A")
       p.Deadlock.th_events);
  (* par forks one path per arm *)
  let paths =
    Deadlock.paths_of_prog ~locks ~name:"w"
      (Prog.par (act "take_A") (act "other"))
  in
  check "par forks two paths" true (List.length paths = 2)

(* ------------------------------------------------------------------ *)
(* All Table 1 rows statically deadlock-clean, orders certified.      *)
(* ------------------------------------------------------------------ *)

let test_rows_clean () =
  let vs = Deadlock.analyze_all () in
  Alcotest.(check int) "eleven rows" 11 (List.length vs);
  List.iter
    (fun (v : Deadlock.verdict) ->
      check (v.Deadlock.v_case ^ " is deadlock-clean") true (Deadlock.clean v);
      check (v.Deadlock.v_case ^ " certifies a total order") true
        (v.Deadlock.v_order <> None))
    vs

(* ------------------------------------------------------------------ *)
(* Injected scenarios: static verdicts.                               *)
(* ------------------------------------------------------------------ *)

let test_inversion_static () =
  let v = Injected.deadlock_verdict Injected.lock_inversion_scenario in
  check "inversion flagged" false (Deadlock.clean v);
  Alcotest.(check (list (list string)))
    "the located cycle" [ [ "A"; "B" ] ] v.Deadlock.v_cycles;
  check "lock-cycle rule fired" true
    (List.exists
       (fun (f : Diag.finding) -> f.Diag.f_rule = Deadlock.rule_cycle)
       v.Deadlock.v_findings);
  (* The cycle's lock names are exactly what the dynamic witness must
     also report. *)
  Alcotest.(check (list string))
    "cycle locks match the scenario's expectation"
    Injected.lock_inversion_scenario.Injected.dl_expect_locks
    (List.sort_uniq String.compare (List.concat v.Deadlock.v_cycles))

let test_leaked_static () =
  let v = Injected.deadlock_verdict Injected.leaked_lock_scenario in
  check "leak flagged" false (Deadlock.clean v);
  check "no cycle in the leak scenario" true (v.Deadlock.v_cycles = []);
  let mr =
    List.filter
      (fun (f : Diag.finding) -> f.Diag.f_rule = Deadlock.rule_must_release)
      v.Deadlock.v_findings
  in
  check "must-release rule fired" true (mr <> []);
  check "the finding locates the leaker thread" true
    (List.exists (fun (f : Diag.finding) ->
         let has_sub sub s =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has_sub "leaker" f.Diag.f_loc && has_sub "lock A" f.Diag.f_msg)
       mr)

(* ------------------------------------------------------------------ *)
(* Injected scenarios: the scheduler's stuck-state witness.           *)
(* ------------------------------------------------------------------ *)

let test_inversion_dynamic () =
  let crashes = Injected.explore_scenario Injected.lock_inversion_scenario in
  check "exploration reaches the stuck state" true (crashes <> []);
  List.iter
    (fun c ->
      Alcotest.(check string)
        "witness kind is deadlock" "deadlock"
        (Crash.kind_name (Crash.kind c));
      Alcotest.(check (list string))
        "held locks of the cross configuration" [ "A"; "B" ]
        (Deadlock.held_of_witness c);
      Alcotest.(check (list string))
        "witness lock names match the static cycle"
        Injected.lock_inversion_scenario.Injected.dl_expect_locks
        (Deadlock.witness_locks c))
    crashes

let test_leaked_dynamic () =
  let crashes = Injected.explore_scenario Injected.leaked_lock_scenario in
  check "the leaked lock starves the neighbour" true (crashes <> []);
  List.iter
    (fun c ->
      Alcotest.(check (list string))
        "witness names the leaked lock"
        Injected.leaked_lock_scenario.Injected.dl_expect_locks
        (Deadlock.witness_locks c))
    crashes

(* ------------------------------------------------------------------ *)
(* Registry-wide static/dynamic soundness differential.               *)
(* ------------------------------------------------------------------ *)

(* A statically clean row must never hit a dynamic stuck state: its
   full verification run may fail for other reasons (it doesn't — the
   rows verify), but no failure may carry the Deadlock kind.  Run under
   1 and 4 domains: the stuck-state detector sits inside the per-state
   exploration, so domain fan-out must not change its verdicts. *)
let registry_differential ~jobs () =
  let static = Deadlock.analyze_all () in
  Verify.with_engine ~jobs @@ fun () ->
  List.iter
    (fun (c : Registry.case) ->
      let statically_clean =
        match
          List.find_opt
            (fun (v : Deadlock.verdict) ->
              v.Deadlock.v_case = c.Registry.c_name)
            static
        with
        | Some v -> Deadlock.clean v
        | None -> true
      in
      let reports = c.Registry.c_verify () in
      let dynamic_deadlocks =
        List.concat_map
          (fun (r : Verify.report) ->
            List.filter
              (fun (f : Verify.failure) ->
                Crash.kind f.Verify.crash = Crash.Deadlock)
              r.Verify.failures)
          reports
      in
      check
        (Fmt.str "%s: static clean (%b) implies no dynamic stuck state"
           c.Registry.c_name statically_clean)
        true
        ((not statically_clean) || dynamic_deadlocks = []))
    Registry.all

let test_differential_j1 () = registry_differential ~jobs:1 ()
let test_differential_j4 () = registry_differential ~jobs:4 ()

(* ------------------------------------------------------------------ *)
(* QCheck: a certified order is consistent with every path.           *)
(* ------------------------------------------------------------------ *)

let qc_locks = List.map mk_lock [ "A"; "B"; "C" ]

let gen_scripts =
  QCheck2.Gen.(
    let step =
      map2
        (fun acq l ->
          if acq then Deadlock.S_acquire l else Deadlock.S_release l)
        bool
        (oneofl [ "A"; "B"; "C" ])
    in
    map
      (List.mapi (fun i steps ->
           {
             Deadlock.sc_thread = Fmt.str "t%d" i;
             sc_steps = steps;
             sc_exit = Deadlock.Returns;
           }))
      (list_size (int_range 1 3) (list_size (int_range 1 6) step)))

(* Replay each path's held multiset; every acquisition made while
   holding [h] must come after [h] in the certified order. *)
let order_consistent order paths =
  let pos l =
    let rec go i = function
      | [] -> None
      | x :: _ when String.equal x l -> Some i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 order
  in
  List.for_all
    (fun (p : Deadlock.path) ->
      let ok, _ =
        List.fold_left
          (fun (ok, held) ev ->
            match ev with
            | Deadlock.Acquire { e_lock; _ } ->
              let ok' =
                List.for_all
                  (fun h ->
                    String.equal h e_lock
                    ||
                    match (pos h, pos e_lock) with
                    | Some i, Some j -> i < j
                    | _ -> false)
                  held
              in
              (ok && ok', e_lock :: held)
            | Deadlock.Release { e_lock; _ } ->
              let rec drop = function
                | [] -> []
                | h :: tl when String.equal h e_lock -> tl
                | h :: tl -> h :: drop tl
              in
              (ok, drop held))
          (true, []) p.Deadlock.th_events
      in
      ok)
    paths

let prop_certified_order_consistent =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"a certified lock order is consistent with every acquisition path"
       gen_scripts
       (fun scripts ->
         let v = Deadlock.analyze_scripts ~case:"qc" ~locks:qc_locks scripts in
         match v.Deadlock.v_order with
         | None ->
           (* refusing to certify is only allowed under a cycle *)
           v.Deadlock.v_cycles <> []
         | Some order ->
           v.Deadlock.v_cycles = []
           && order_consistent order (Deadlock.paths_of_scripts scripts)))

(* ------------------------------------------------------------------ *)
(* CLI exit codes follow the Verify taxonomy.                         *)
(* ------------------------------------------------------------------ *)

(* Under [dune runtest] the cwd is _build/default/test (the dune deps
   pull the CLI in next door); under [dune exec] from the workspace
   root it is the root itself. *)
let cli =
  List.find_opt Sys.file_exists
    [ "../bin/fcsl_cli.exe"; "_build/default/bin/fcsl_cli.exe" ]

let run_cli args =
  match cli with
  | None -> Alcotest.fail "fcsl CLI binary not found"
  | Some cli -> Sys.command (Fmt.str "%s %s >/dev/null 2>&1" cli args)

let test_cli_exit_codes () =
  if cli = None then Alcotest.skip () (* CLI not built in this context *)
  else begin
    Alcotest.(check int)
      "clean deadlock pass exits 0" Verify.exit_ok
      (run_cli "analyze --deadlock");
    (* A racy surface file is a verification failure: exit 1. *)
    let racy = Filename.temp_file "fcsl_racy" ".fcsl" in
    let oc = open_out racy in
    output_string oc Injected.span_nocas_source;
    close_out oc;
    Alcotest.(check int)
      "race findings exit 1" Verify.exit_failed
      (run_cli (Fmt.str "analyze %s --no-self-test" (Filename.quote racy)));
    Sys.remove racy;
    (* An unparseable input means the analysis never ran: exit 3. *)
    let garbage = Filename.temp_file "fcsl_garbage" ".fcsl" in
    let oc = open_out garbage in
    output_string oc "this is not a surface program {";
    close_out oc;
    Alcotest.(check int)
      "unanalyzable input exits 3" Verify.exit_internal
      (run_cli (Fmt.str "analyze %s --no-self-test" (Filename.quote garbage)));
    Sys.remove garbage
  end

(* The analyzer's JSON is a contract: CI diffs [analyze --json],
   [analyze --deadlock --json] and [analyze --independence --json]
   against committed baselines, and this runs the same three diffs
   under [dune runtest].  The baselines are dune deps, so they sit at
   ../ci next to the test's cwd; from the workspace root they are
   under ci/. *)
let baseline name =
  List.find_opt Sys.file_exists [ "../ci/" ^ name; "ci/" ^ name ]

(* Where [want] and [got] first differ, with up to 60 bytes of each
   from there: the baselines run to 100 KiB, too long to print whole. *)
let first_difference want got =
  let n = min (String.length want) (String.length got) in
  let rec go i = if i < n && want.[i] = got.[i] then go (i + 1) else i in
  let i = go 0 in
  let from s = String.sub s i (min 60 (String.length s - i)) in
  (i, from want, from got)

let cli_stdout cli args =
  let ic = Unix.open_process_in (Fmt.str "%s %s" cli args) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "%s %s did not exit 0" cli args

let test_cli_json_baselines () =
  match cli with
  | None -> Alcotest.skip () (* CLI not built in this context *)
  | Some cli ->
    List.iter
      (fun (args, file) ->
        match baseline file with
        | None -> Alcotest.failf "baseline %s not found" file
        | Some path ->
          let want = In_channel.with_open_bin path In_channel.input_all in
          let got = cli_stdout cli ("analyze " ^ args) in
          if got <> want then
            let i, w, g = first_difference want got in
            Alcotest.failf "analyze %s drifts from %s at byte %d:@.want %S@.got  %S"
              args file i w g)
      [
        ("--json", "analyze-baseline.json");
        ("--deadlock --json", "analyze-baseline.json");
        ("--independence --json", "independence-baseline.json");
      ]

let suite =
  [
    Alcotest.test_case "lock-order graph machinery" `Quick
      test_graph_machinery;
    Alcotest.test_case "prog walk: visible spine, opaque rest" `Quick
      test_prog_walk;
    Alcotest.test_case "all Table 1 rows deadlock-clean" `Quick
      test_rows_clean;
    Alcotest.test_case "lock inversion flagged statically" `Quick
      test_inversion_static;
    Alcotest.test_case "leaked lock flagged statically" `Quick
      test_leaked_static;
    Alcotest.test_case "lock inversion: dynamic stuck-state witness" `Quick
      test_inversion_dynamic;
    Alcotest.test_case "leaked lock: dynamic stuck-state witness" `Quick
      test_leaked_dynamic;
    Alcotest.test_case "static/dynamic differential (-j 1)" `Slow
      test_differential_j1;
    Alcotest.test_case "static/dynamic differential (-j 4)" `Slow
      test_differential_j4;
    prop_certified_order_consistent;
    Alcotest.test_case "CLI exit-code taxonomy" `Quick test_cli_exit_codes;
    Alcotest.test_case "CLI JSON matches the CI baselines" `Quick
      test_cli_json_baselines;
  ]
