(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) and times the mechanized artifacts
   with bechamel.

   Structure (one bechamel Test group per table/figure):

   - table1/<program>     verification wall-time of each Table 1 row
                          (the Build-column analogue)
   - table2/reuse-matrix  computing the concurroid-reuse matrix
   - fig2/span-replay     the deterministic Figure 2 execution
   - fig5/dep-graph       computing the dependency diagram
   - scaling/span-exec:n  executing span on random connected graphs
   - scaling/stability    the stability checker over the SpanTree universe
   - scaling/explore      exhaustive exploration of a racy CAS pair

   After the micro-benchmarks, the harness prints the regenerated
   Table 1 (line counts + verification times + verdicts), Table 2, the
   Figure 2 stage trace, and Figure 5 — the same rows/series the paper
   reports. *)

open Bechamel
open Toolkit
open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Tables = Fcsl_report.Tables
module Registry = Fcsl_report.Registry

(* --- Table 1: one benchmark per verified program. --- *)

let table1_tests =
  List.map
    (fun (c : Registry.case) ->
      Test.make ~name:c.Registry.c_name
        (Staged.stage (fun () ->
             let reports = c.Registry.c_verify () in
             if not (List.for_all Verify.ok reports) then
               failwith (c.Registry.c_name ^ ": verification failed"))))
    Registry.all

(* --- Table 2 / Figure 5: matrix and diagram computation. --- *)

let table2_test =
  Test.make ~name:"reuse-matrix"
    (Staged.stage (fun () ->
         if not (Tables.table2_matches_paper ()) then
           failwith "Table 2 deviates from the paper"))

let fig5_test =
  Test.make ~name:"dep-graph"
    (Staged.stage (fun () ->
         if not (Tables.fig5_matches_paper ()) then
           failwith "Figure 5 deviates from the paper"))

(* --- Figure 2: deterministic replay of the paper's staging. --- *)

let fig2_replay () =
  let pv = Label.make "bench_fig2_priv" in
  let sp = Label.make "bench_fig2_span" in
  let g0 = Graph_catalog.fig2_graph () in
  let w = World.of_list [ Priv.make pv ] in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g0))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  match
    Sched.run_with_chooser
      ~choose:(fun ~step:_ _ -> 0)
      genv mine
      (Span.span_root ~pv ~sp (Ptr.of_int 1))
  with
  | Sched.Finished (true, final) -> (
    match Graph.of_heap (Priv.pv_self pv final) with
    | Some g when Graph.spanning g0 g (Ptr.of_int 1) (Graph.dom_set g) -> ()
    | _ -> failwith "fig2: not a spanning tree")
  | _ -> failwith "fig2: replay failed"

let fig2_test = Test.make ~name:"span-replay" (Staged.stage fig2_replay)

(* --- Scaling series: span execution on random graphs. --- *)

let span_exec n =
  Staged.stage (fun () ->
      let rng = Random.State.make [| 7; n |] in
      let g0 = Graph_catalog.random_connected_graph ~rng n in
      let pv = Label.make "bench_scale_priv" in
      let sp = Label.make "bench_scale_span" in
      let w = World.of_list [ Priv.make pv ] in
      let st =
        State.singleton pv
          (Slice.make
             ~self:(Aux.heap (Graph.to_heap g0))
             ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
      in
      let genv, mine = Sched.genv_of_state w st in
      match
        Sched.run_random ~seed:n ~fuel:1_000_000 genv mine
          (Span.span_root ~pv ~sp (Ptr.of_int 1))
      with
      | Sched.Finished (true, _) -> ()
      | _ -> failwith "span exec failed")

let span_scaling_test =
  Test.make_indexed ~name:"span-exec" ~fmt:"%s:%d" ~args:[ 8; 16; 32 ] span_exec

let stability_test =
  let sp = Label.make "bench_stab_span" in
  let conc = Span.concurroid sp in
  let w = World.of_list [ conc ] in
  let states =
    List.map (fun s -> State.singleton sp s) (Concurroid.enum conc)
  in
  Test.make ~name:"stability"
    (Staged.stage (fun () ->
         if
           not
             (Stability.is_stable
                (Stability.check w ~states
                   (Span.assert_in_self sp (Ptr.of_int 1))))
         then failwith "stability bench failed"))

(* Exhaustive exploration of a racy CAS pair under interference, with
   and without configuration memoization (the naive/memoized engine
   comparison of DESIGN.md). *)
let explore_tests =
  let sp = Label.make "bench_explore_span" in
  let conc = Span.concurroid sp in
  let w = World.of_list [ conc ] in
  let g = Graph_catalog.graph_of [ (Ptr.of_int 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton sp
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  let body ~dedup () =
    let genv, mine = Sched.genv_of_state ~interfere:(World.labels w) w st in
    let prog =
      Prog.par
        (Prog.act (Span.trymark sp (Ptr.of_int 1)))
        (Prog.act (Span.trymark sp (Ptr.of_int 1)))
    in
    let outs, _ = Sched.explore ~dedup genv mine prog in
    if outs = [] then failwith "explore bench failed"
  in
  [
    Test.make ~name:"explore-naive" (Staged.stage (body ~dedup:false));
    Test.make ~name:"explore-dedup" (Staged.stage (body ~dedup:true));
  ]

(* --- Ablations: the design choices DESIGN.md calls out. --- *)

(* 1. Interference depth: how verification cost scales with the
   env_budget bound. *)
let ablation_env_budget =
  Test.make_indexed ~name:"span-tp-env-budget" ~fmt:"%s:%d" ~args:[ 0; 1; 2 ]
    (fun budget ->
      Staged.stage (fun () ->
          let sp = Span.sp_label in
          let w = Span.world ~max_nodes:2 () in
          let init = Span.init_states ~max_nodes:2 () in
          let r =
            Verify.check_triple ~fuel:20 ~env_budget:budget ~world:w ~init
              (Span.span sp (Ptr.of_int 1))
              (Span.span_spec sp (Ptr.of_int 1))
          in
          if not (Verify.ok r) then failwith "ablation: span_tp failed"))

(* 2. The blocking reduction: verifying CG increment with the await-
   guarded lock (the default) vs the raw spin loop.  The raw spin is
   exponentially worse; its exploration is capped so the benchmark
   terminates, demonstrating the gap rather than hanging. *)
let incr_with_raw_spin () =
  let module I = Cg_incr.Cas in
  let open Prog in
  let raw_lock =
    Prog.ffix
      (fun loop () ->
        let* b = act (Caslock.try_lock ~await:false I.label I.cfg) in
        if b then ret () else loop ())
      ()
  in
  let prog =
    let* () = raw_lock in
    let* v = act (Caslock.read I.label I.cfg Cg_incr.Cas.x_cell) in
    let v = Option.value (Fcsl_heap.Value.as_int v) ~default:0 in
    let* () =
      act (Caslock.write I.label I.cfg Cg_incr.Cas.x_cell (Fcsl_heap.Value.int (v + 1)))
    in
    Caslock.unlock I.label I.cfg I.resource ~delta:(Aux.nat 1)
  in
  Verify.check_triple ~fuel:12 ~env_budget:1 ~max_outcomes:20_000
    ~world:(I.world ()) ~init:(I.init_states ()) prog
    (I.incr_spec I.label ())

let ablation_blocking =
  [
    Test.make ~name:"incr-await-lock"
      (Staged.stage (fun () ->
           let module I = Cg_incr.Cas in
           if not (List.for_all Verify.ok (I.verify ~env_budget:1 ())) then
             failwith "ablation: await incr failed"));
    Test.make ~name:"incr-raw-spin-capped"
      (Staged.stage (fun () ->
           let r = incr_with_raw_spin () in
           if r.Verify.failures <> [] then failwith "ablation: spin incr failed"));
  ]

(* 3. Exhaustive vs randomized checking of the same triple. *)
let ablation_random =
  [
    Test.make ~name:"span-root-exhaustive"
      (Staged.stage (fun () ->
           if
             not
               (List.for_all Verify.ok (Span.verify_span_root ~max_nodes:3 ()))
           then failwith "ablation: exhaustive failed"));
    Test.make ~name:"span-root-randomized"
      (Staged.stage (fun () ->
           let pv = Span.pv_label and sp = Span.sp_label in
           let w = World.of_list [ Priv.make pv ] in
           let g = Graph_catalog.fig2_graph () in
           let st =
             State.singleton pv
               (Slice.make
                  ~self:(Aux.heap (Graph.to_heap g))
                  ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
           in
           let r =
             Verify.check_triple_random ~fuel:1000 ~trials:50 ~world:w
               ~init:[ st ]
               (Span.span_root ~pv ~sp (Ptr.of_int 1))
               (Span.span_root_spec ~pv (Ptr.of_int 1))
           in
           if not (Verify.ok r) then failwith "ablation: randomized failed"));
  ]

(* 4. The extension beyond the paper: one client against both stack
   implementations through the abstract interface. *)
let extension_tests =
  [
    Test.make ~name:"abstract-stack-clients"
      (Staged.stage (fun () ->
           if not (List.for_all Verify.ok (Stack_intf.verify ())) then
             failwith "extension: stack clients failed"));
  ]

let all_tests =
  Test.make_grouped ~name:"fcsl" ~fmt:"%s/%s"
    [
      Test.make_grouped ~name:"table1" ~fmt:"%s/%s" table1_tests;
      Test.make_grouped ~name:"table2" ~fmt:"%s/%s" [ table2_test ];
      Test.make_grouped ~name:"fig2" ~fmt:"%s/%s" [ fig2_test ];
      Test.make_grouped ~name:"fig5" ~fmt:"%s/%s" [ fig5_test ];
      Test.make_grouped ~name:"scaling" ~fmt:"%s/%s"
        ([ span_scaling_test; stability_test ] @ explore_tests);
      Test.make_grouped ~name:"ablation" ~fmt:"%s/%s"
        ((ablation_env_budget :: ablation_blocking) @ ablation_random);
      Test.make_grouped ~name:"extension" ~fmt:"%s/%s" extension_tests;
    ]

(* Runs the bechamel suite and returns one row per benchmark:
   (name, ns/run, major-words/run) — also what BENCH_explore.json
   records. *)
let run_benchmarks () : (string * float * float) list =
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let instances = Instance.[ monotonic_clock; major_allocated ] in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> nan
    | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> t
      | Some [] | None -> nan)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.major_allocated raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) times []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ols) ->
           let time =
             match Analyze.OLS.estimates ols with
             | Some (t :: _) -> t
             | Some [] | None -> nan
           in
           (name, ols, time, estimate words name))
  in
  Fmt.pr "== Micro-benchmarks (bechamel, monotonic clock) ==@.";
  Fmt.pr "%-42s %13s %8s %14s@." "benchmark" "time/run" "r^2" "major-w/run";
  List.iter
    (fun (name, ols, time, mw) ->
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:nan in
      let pp_t ppf t =
        if t > 1e9 then Fmt.pf ppf "%10.2f s " (t /. 1e9)
        else if t > 1e6 then Fmt.pf ppf "%10.2f ms" (t /. 1e6)
        else if t > 1e3 then Fmt.pf ppf "%10.2f us" (t /. 1e3)
        else Fmt.pf ppf "%10.2f ns" t
      in
      Fmt.pr "%-42s %a %8.4f %14.0f@." name pp_t time r2 mw)
    rows;
  Fmt.pr "@.";
  List.map (fun (name, _, time, mw) -> (name, time, mw)) rows

(* --- Engine comparison: naive vs memoized vs memoized+parallel. ---

   Wall-clock of every Table 1 verification under the three engine
   configurations, with the verdict summaries cross-checked for
   equality (memoized replay is exact; the parallel merge reproduces
   the sequential accounting). *)

type engine_row = {
  er_name : string;
  er_naive : float;
  er_dedup : float;
  er_dedup_par : float;
  er_verdicts_equal : bool;
}

let total f rows = List.fold_left (fun a r -> a +. f r) 0. rows

let verdict_summary reports =
  List.map
    (fun (r : Verify.report) ->
      ( r.Verify.spec_name,
        (Verify.ok r, r.Verify.tier),
        r.Verify.initial_states,
        r.Verify.outcomes,
        r.Verify.diverged,
        r.Verify.complete ))
    reports

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let engine_comparison ~jobs () : engine_row list =
  let sweep ~dedup ~jobs =
    Verify.with_engine ~dedup ~jobs (fun () ->
        List.map
          (fun (c : Registry.case) -> timed c.Registry.c_verify)
          Registry.all)
  in
  let naive = sweep ~dedup:false ~jobs:1 in
  let dedup = sweep ~dedup:true ~jobs:1 in
  let dedup_par = sweep ~dedup:true ~jobs in
  List.map2
    (fun (c : Registry.case) ((rn, tn), ((rd, td), (rp, tp))) ->
      {
        er_name = c.Registry.c_name;
        er_naive = tn;
        er_dedup = td;
        er_dedup_par = tp;
        er_verdicts_equal =
          verdict_summary rn = verdict_summary rd
          && verdict_summary rd = verdict_summary rp;
      })
    Registry.all
    (List.map2 (fun a (b, c) -> (a, (b, c))) naive
       (List.map2 (fun a b -> (a, b)) dedup dedup_par))

let pp_engine_rows ppf rows =
  Fmt.pf ppf "%-14s %9s %9s %11s %8s@." "Program" "naive" "memoized"
    "memo+par" "verdicts";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s %8.3fs %8.3fs %10.3fs %8s@." r.er_name r.er_naive
        r.er_dedup r.er_dedup_par
        (if r.er_verdicts_equal then "equal" else "DIFFER"))
    rows;
  Fmt.pf ppf "%-14s %8.3fs %8.3fs %10.3fs@." "TOTAL"
    (total (fun r -> r.er_naive) rows)
    (total (fun r -> r.er_dedup) rows)
    (total (fun r -> r.er_dedup_par) rows)

(* --- Overheads: budget enforcement and journaling (docs/ROBUSTNESS.md). ---

   Every Table 1 verification plain vs with one mechanism armed, each
   budgeted at < 5%:
   - a budget whose ceilings are far above any real consumption, so
     every explored configuration pays the cooperative polling cost and
     nothing ever trips;
   - a write-ahead journal under the default group-commit policy
     (Interval 0.05), opened FRESH for every repetition (a reused one
     would replay completed units and fake a speedup).
   Verdicts, including the tier, must be identical. *)

type overhead_row = {
  ov_name : string;
  ov_plain : float;
  ov_armed : float;
  ov_verdicts_equal : bool;
}

(* Percent slowdown of [x] over [base]; NaN when [base] is zero. *)
let overhead_pct ~base x =
  if base > 0. then (x -. base) /. base *. 100. else nan

(* best of three: the overhead being measured is well under the noise
   floor of a single wall-clock sample *)
let best3 f =
  let r, t1 = timed f in
  let _, t2 = timed f in
  let _, t3 = timed f in
  (r, Float.min t1 (Float.min t2 t3))

(* [arm run] runs one verification with the mechanism armed; every
   repetition arms it afresh. *)
let overhead_comparison arm : overhead_row list =
  List.map
    (fun (c : Registry.case) ->
      let rp, tp = best3 c.Registry.c_verify in
      let ra, ta = best3 (fun () -> arm c.Registry.c_verify) in
      {
        ov_name = c.Registry.c_name;
        ov_plain = tp;
        ov_armed = ta;
        ov_verdicts_equal = verdict_summary rp = verdict_summary ra;
      })
    Registry.all

let budgeted run =
  Verify.with_engine
    ~budget:
      (Budget.limits ~deadline_s:3600.0 ~max_states:max_int
         ~max_major_words:max_int ())
    run

let journaled =
  let n = ref 0 in
  fun run ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fcsl-bench-journal-%d-%d" (Unix.getpid ()) !n)
    in
    let j = Journal.openj ~fsync:(Journal.Interval 0.05) dir in
    Fun.protect
      ~finally:(fun () -> Journal.close j)
      (fun () -> Verify.with_engine ~journal:(Some j) run)

(* [plain] and [armed] head the two time columns; the armed one is at
   least 9 wide. *)
let pp_overhead_rows ~plain ~armed ppf rows =
  let w = max 8 (String.length armed) in
  Fmt.pf ppf "%-14s %11s %*s %9s %8s@." "Program" plain (w + 1) armed
    "overhead" "verdicts";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-14s %10.3fs %*.3fs %8.1f%% %8s@." r.ov_name r.ov_plain w
        r.ov_armed
        (overhead_pct ~base:r.ov_plain r.ov_armed)
        (if r.ov_verdicts_equal then "equal" else "DIFFER"))
    rows;
  let tp = total (fun r -> r.ov_plain) rows in
  let ta = total (fun r -> r.ov_armed) rows in
  Fmt.pf ppf "%-14s %10.3fs %*.3fs %8.1f%%@." "TOTAL" tp w ta
    (overhead_pct ~base:tp ta)

(* --- The BENCH_*.json records: one [Json.t] each, printed once. --- *)

(* An undefined ratio (zero denominator) is NaN, which JSON cannot
   spell: it is written as null. *)
let num x = if Float.is_finite x then Json.Float x else Json.Null

let write_json path v =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string v);
      output_char oc '\n')

let write_bench_json ~path ~jobs (bench_rows : (string * float * float) list)
    (engine_rows : engine_row list) =
  let bench (name, ns, mw) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ns_per_run", num ns);
        ("major_words", num mw);
      ]
  in
  let engine r =
    Json.Obj
      [
        ("name", Json.Str r.er_name);
        ("naive_s", num r.er_naive);
        ("memoized_s", num r.er_dedup);
        ("memoized_parallel_s", num r.er_dedup_par);
        ("verdicts_equal", Json.Bool r.er_verdicts_equal);
      ]
  in
  write_json path
    (Json.Obj
       [
         ("benchmarks", Json.Arr (List.map bench bench_rows));
         ( "engine_comparison",
           Json.Obj
             [
               ("jobs", Json.Int jobs);
               ("cases", Json.Arr (List.map engine engine_rows));
             ] );
       ])

(* --- BENCH_robust.json and BENCH_journal.json: the overhead records. ---

   Both have one shape: per case the plain and the armed wall time, the
   overhead and whether the verdicts matched, then the totals.  Only
   the key names differ. *)

let write_overhead_json ~path ~section ~plain ~armed ?(extra = []) rows =
  let case r =
    Json.Obj
      [
        ("name", Json.Str r.ov_name);
        (plain, num r.ov_plain);
        (armed, num r.ov_armed);
        ("overhead_pct", num (overhead_pct ~base:r.ov_plain r.ov_armed));
        ("verdicts_equal", Json.Bool r.ov_verdicts_equal);
      ]
  in
  let tp = total (fun r -> r.ov_plain) rows in
  let ta = total (fun r -> r.ov_armed) rows in
  write_json path
    (Json.Obj
       [
         ( section,
           Json.Obj
             ((("target_pct", Json.Float 5.0) :: extra)
             @ [
                 ("cases", Json.Arr (List.map case rows));
                 ("total_" ^ plain, num tp);
                 ("total_" ^ armed, num ta);
                 ("total_overhead_pct", num (overhead_pct ~base:tp ta));
               ]) );
       ])

(* --- The regenerated evaluation artifacts. --- *)

let print_figure2 () =
  Fmt.pr "== Figure 2: stages of concurrent spanning-tree construction ==@.";
  let pv = Label.make "print_fig2_priv" in
  let sp = Label.make "print_fig2_span" in
  let g0 = Graph_catalog.fig2_graph () in
  let w = World.of_list [ Priv.make pv ] in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g0))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  let name_of p =
    match
      List.find_opt (fun (_, q) -> Ptr.equal p q) Graph_catalog.fig2_nodes
    with
    | Some (n, _) -> n
    | None -> Ptr.to_string p
  in
  let stage = ref 1 in
  let observe genv' _mine step_name =
    let interesting prefix =
      String.length step_name >= String.length prefix
      && String.sub step_name 0 (String.length prefix) = prefix
    in
    if interesting "trymark" || interesting "nullify" then
      match Label.Map.find_opt sp genv'.Sched.joints with
      | Some joint -> (
        match Graph.of_heap joint with
        | Some g ->
          let marked =
            String.concat ""
              (List.map
                 (fun x -> if Graph.mark g x then name_of x else "")
                 (Graph.dom g))
          in
          let edges =
            List.concat_map
              (fun x ->
                List.filter_map
                  (fun y ->
                    if Graph.edge g x y then Some (name_of x ^ "->" ^ name_of y)
                    else None)
                  (Graph.dom g))
              (Graph.dom g)
          in
          Fmt.pr "  (%d) %-22s marked: {%s}  edges: %s@." !stage step_name
            marked
            (String.concat ", " edges);
          incr stage
        | None -> ())
      | None -> ()
  in
  (match
     Sched.run_with_chooser
       ~choose:(fun ~step:_ _ -> 0)
       ~observe genv mine
       (Span.span_root ~pv ~sp (Ptr.of_int 1))
   with
  | Sched.Finished (true, final) ->
    let g = Graph.of_heap_exn (Priv.pv_self pv final) in
    Fmt.pr "  final: spanning tree rooted at a: %b@."
      (Graph.spanning g0 g (Ptr.of_int 1) (Graph.dom_set g))
  | _ -> Fmt.pr "  replay failed@.");
  Fmt.pr "@."

let run_robust () =
  Fmt.pr "== Budget-enforcement overhead: armed but untripped ==@.";
  let rows = overhead_comparison budgeted in
  Fmt.pr "%a@." (pp_overhead_rows ~plain:"unbudgeted" ~armed:"armed") rows;
  write_overhead_json ~path:"BENCH_robust.json" ~section:"budget_overhead"
    ~plain:"unbudgeted_s" ~armed:"armed_s" rows;
  Fmt.pr "wrote BENCH_robust.json@.@."

let run_journal () =
  Fmt.pr "== Journal-armed overhead: write-ahead journaling on vs off ==@.";
  let rows = overhead_comparison journaled in
  Fmt.pr "%a@."
    (pp_overhead_rows ~plain:"unjournaled" ~armed:"journaled")
    rows;
  write_overhead_json ~path:"BENCH_journal.json" ~section:"journal_overhead"
    ~plain:"unjournaled_s" ~armed:"journaled_s"
    ~extra:[ ("fsync_policy", Json.Str "interval:0.05") ]
    rows;
  Fmt.pr "wrote BENCH_journal.json@.@."

(* --- BENCH_serve.json: the service memoization record. --- *)

(* Cold-vs-memoized latency through the daemon itself ([fcsl serve]):
   one in-process server on a fresh journal; every Table 1 case is
   submitted cold once (a full exploration) and then repeatedly (served
   from the journal memo), measuring wall-clock per submission at the
   client.  The gate is registry-total: the memoized pass must beat the
   cold pass by at least 10x (tiny rows are dominated by socket
   round-trips, so per-case ratios are reported but not gated).  A
   sustained-throughput row then drives 4 concurrent clients across the
   memoized registry. *)

module Sv_server = Fcsl_service.Server
module Sv_client = Fcsl_service.Client

type serve_row = {
  sv_name : string;
  sv_cold_s : float;
  sv_memo_p50_s : float;
}

type serve_throughput = { st_submissions : int; st_elapsed_s : float }

type serve_overload = {
  so_submissions : int;  (** flood submissions attempted (all clients) *)
  so_shed : int;  (** answered with a structured shed frame *)
  so_gold_idle_p50_s : float;  (** memoized gold latency, quiet daemon *)
  so_gold_flood_p50_s : float;  (** same probe while the flood runs *)
}

let serve_target_speedup = 10.0
let serve_memo_trials = 5
let serve_clients = 4

let serve_overload_queue_bound = 2

(* The per-job delay is the flood's dominant, uniform work unit: the
   flood cases below are the registry's near-free rows, so queue
   pressure is set by this knob rather than by whichever case's
   exploration happens to be running.  It is also the overload gate's
   bound: a gold memo probe is answered from the verdict table and must
   never wait behind a cold job, so a flood-time median at or above one
   job's delay means probes are queueing behind the flood (head-of-line
   waiting).  The probes still share the server lock and the CPU with
   the flood's admissions, so the bound is absolute rather than a ratio
   to the idle median, which is tens of microseconds and moves with
   host load. *)
let serve_overload_job_delay_s = 0.08

let serve_overload_flood_cases =
  List.filter
    (fun (c : Registry.case) ->
      List.mem c.Registry.c_name [ "CG increment"; "FC-stack"; "Prod/Cons" ])
    Registry.all

let sv_speedup r =
  if r.sv_memo_p50_s > 0. then r.sv_cold_s /. r.sv_memo_p50_s else nan

let so_shed_rate ov =
  if ov.so_submissions > 0 then
    float_of_int ov.so_shed /. float_of_int ov.so_submissions
  else nan

let serve_overload_met ov =
  ov.so_shed > 0 && ov.so_gold_flood_p50_s < serve_overload_job_delay_s

let with_serve_daemon ?(tag = "") ?queue_bound ?overload_high ?overload_low
    ?(job_delay_s = 0.) f =
  let tmp = Filename.get_temp_dir_name () in
  let stamp = Printf.sprintf "fcsl-bench-serve-%d%s" (Unix.getpid ()) tag in
  let dir = Filename.concat tmp stamp in
  let socket = Filename.concat tmp (stamp ^ ".sock") in
  Journal.close (Journal.openj ~resume:false dir);
  let t =
    Sv_server.create
      (Sv_server.config ~signals:false ~jobs:1 ?queue_bound ?overload_high
         ?overload_low ~job_delay_s ~socket ~journal_dir:dir ())
  in
  let th = Thread.create Sv_server.run t in
  if not (Sv_client.wait_ready ~socket ()) then
    failwith "bench: the in-process daemon never answered a ping";
  Fun.protect
    ~finally:(fun () ->
      Sv_server.stop t;
      Thread.join th)
    (fun () -> f ~socket)

let timed_submit cn case =
  let t0 = Unix.gettimeofday () in
  match Sv_client.submit cn ~case with
  | Ok v -> (Unix.gettimeofday () -. t0, v)
  | Error e ->
    failwith (Fmt.str "bench: submit %s: %a" case Sv_client.pp_submit_error e)

let serve_comparison () =
  with_serve_daemon (fun ~socket ->
      let cn = Sv_client.connect ~socket in
      let rows =
        List.map
          (fun (c : Registry.case) ->
            let name = c.Registry.c_name in
            (* NB: a first submission may legitimately come back
               memoized when an earlier case already journalled its
               underlying specs (e.g. the lock cases verify through CG
               increment's counter resource), so cold_s is "first
               submission in registry order", not "guaranteed fresh". *)
            let cold_s, _cold = timed_submit cn name in
            let memo_times =
              List.init serve_memo_trials (fun _ ->
                  let s, v = timed_submit cn name in
                  if not v.Sv_client.v_memo then
                    failwith (name ^ ": repeat submission re-explored");
                  s)
            in
            let sorted = List.sort compare memo_times in
            let p50 = List.nth sorted (serve_memo_trials / 2) in
            { sv_name = name; sv_cold_s = cold_s; sv_memo_p50_s = p50 })
          Registry.all
      in
      Sv_client.close cn;
      (* sustained throughput: [serve_clients] concurrent clients each
         re-submitting the whole (memoized) registry *)
      let t0 = Unix.gettimeofday () in
      let threads =
        List.init serve_clients (fun _ ->
            Thread.create
              (fun () ->
                let cn = Sv_client.connect ~socket in
                List.iter
                  (fun (c : Registry.case) ->
                    ignore (timed_submit cn c.Registry.c_name))
                  Registry.all;
                Sv_client.close cn)
              ())
      in
      List.iter Thread.join threads;
      let tput =
        {
          st_submissions = serve_clients * List.length Registry.all;
          st_elapsed_s = Unix.gettimeofday () -. t0;
        }
      in
      (rows, tput))

(* Poll [cn]'s health frame until [pred] holds (about 10 s at most). *)
let await_health cn what pred =
  let rec go tries =
    match Sv_client.health cn with
    | Ok h when pred h -> ()
    | Ok _ when tries > 0 ->
      Thread.delay 0.005;
      go (tries - 1)
    | Ok _ -> failwith ("bench overload: timed out waiting for " ^ what)
    | Error e ->
      failwith
        (Fmt.str "bench overload: health: %a" Sv_client.pp_submit_error e)
  in
  go 2000

(* The overload row: [serve_clients] concurrent clients flood a
   deliberately tiny queue (bound 2, high watermark 1) with bronze
   submissions — each client walks the registry once, rotated so
   distinct digests hit the cold queue together — while a gold client
   keeps probing a memoized case.  Reported: the shed rate the flood
   observed and the gold p50 during the flood and on the quiet daemon.
   Gated: sheds happened at all (the queue really saturated) and the
   flood-time gold p50 stayed below one job's delay
   ([serve_overload_job_delay_s]).

   Most flood submissions attach to an in-flight job or hit the verdict
   table, so whether one of them sheds depends on thread timing.  The
   row therefore saturates the daemon first, by construction: one
   silver job per flood case, each on its own connection.  The first
   (CG increment, seconds of exploration) occupies the executor and the
   other two fill the queue to its bound.  Once health reports the
   daemon overloaded with a full queue, it stays overloaded until the
   executor has drained both queued jobs, so a fresh bronze digest
   submitted then must be shed. *)
let serve_overload_run () =
  with_serve_daemon ~tag:"-overload" ~queue_bound:serve_overload_queue_bound
    ~overload_high:1 ~overload_low:0 ~job_delay_s:serve_overload_job_delay_s
    (fun ~socket ->
      let probe_case = (List.hd Registry.all).Registry.c_name in
      let p50 = function
        | [] -> nan
        | times -> List.nth (List.sort compare times) (List.length times / 2)
      in
      let cn = Sv_client.connect ~socket in
      (* warm the probe's gold memo, then measure the quiet baseline *)
      ignore (timed_submit cn probe_case);
      let idle = List.init 9 (fun _ -> fst (timed_submit cn probe_case)) in
      let running = Atomic.make 0 in
      let subs = Atomic.make 0 in
      let sheds = Atomic.make 0 in
      let flood_err = Atomic.make None in
      let submit conn qos (c : Registry.case) =
        Atomic.incr subs;
        let r = Sv_client.submit ~qos conn ~case:c.Registry.c_name in
        (match r with
        | Ok _ -> ()
        | Error (Sv_client.Shed _) -> Atomic.incr sheds
        | Error e ->
          Atomic.set flood_err
            (Some (Fmt.str "%a" Sv_client.pp_submit_error e)));
        r
      in
      let on_own_conn qos c =
        Thread.create
          (fun () ->
            let cn = Sv_client.connect ~socket in
            ignore (submit cn qos c);
            Sv_client.close cn)
          ()
      in
      let gauge k conv h = Option.bind (Json.member k h) conv in
      let saturating =
        match serve_overload_flood_cases with
        | [] -> []
        | first :: rest ->
          let busy = on_own_conn Fcsl_service.Protocol.Silver first in
          await_health cn "the executor to take the first job" (fun h ->
              gauge "inflight" Json.to_int h = Some 1);
          let queued =
            List.map (on_own_conn Fcsl_service.Protocol.Silver) rest
          in
          await_health cn "a full queue" (fun h ->
              gauge "queue_depth" Json.to_int h
              = Some serve_overload_queue_bound
              && gauge "overload_state" Json.to_str h = Some "overloaded");
          (match submit cn Fcsl_service.Protocol.Bronze first with
          | Ok _ ->
            failwith "bench overload: a saturated daemon admitted bronze"
          | Error _ -> ());
          busy :: queued
      in
      let flooder i () =
        Atomic.incr running;
        let cases =
          (* rotate per client so distinct fresh digests arrive
             together instead of deduplicating into one job; alternate
             silver and bronze — silver is admitted (and demoted) so
             it saturates the queue, bronze sheds against it *)
          let all = serve_overload_flood_cases in
          let n = List.length all in
          List.concat
            (List.init n (fun k ->
                 let c = List.nth all ((k + i) mod n) in
                 [
                   (c, Fcsl_service.Protocol.Bronze);
                   (c, Fcsl_service.Protocol.Silver);
                 ]))
        in
        let cn = Sv_client.connect ~socket in
        for _round = 1 to 2 do
          List.iter
            (fun (c, qos) ->
              ignore (submit cn qos c);
              Thread.delay 0.02)
            cases
        done;
        Sv_client.close cn;
        Atomic.decr running
      in
      let threads =
        List.init serve_clients (fun i -> Thread.create (flooder i) ())
      in
      (* gold probes for as long as the flood lasts: a memo hit is
         never shed, so every probe must come back a verdict *)
      let rec probes acc =
        let s, _ = timed_submit cn probe_case in
        if Atomic.get running > 0 then begin
          Thread.delay 0.03;
          probes (s :: acc)
        end
        else s :: acc
      in
      (* wait for the flood to actually start before probing *)
      while Atomic.get running = 0 do
        Thread.delay 0.005
      done;
      let flood = probes [] in
      List.iter Thread.join (threads @ saturating);
      Sv_client.close cn;
      (match Atomic.get flood_err with
      | Some msg -> failwith ("bench overload flood: " ^ msg)
      | None -> ());
      {
        so_submissions = Atomic.get subs;
        so_shed = Atomic.get sheds;
        so_gold_idle_p50_s = p50 idle;
        so_gold_flood_p50_s = p50 flood;
      })

let serve_total_cold rows =
  List.fold_left (fun a r -> a +. r.sv_cold_s) 0. rows

let serve_total_memo rows =
  List.fold_left (fun a r -> a +. r.sv_memo_p50_s) 0. rows

let serve_total_speedup rows =
  let m = serve_total_memo rows in
  if m > 0. then serve_total_cold rows /. m else nan

let serve_targets_met rows = serve_total_speedup rows >= serve_target_speedup

let pp_serve_rows ppf rows =
  Fmt.pf ppf "  %-28s %12s %14s %10s@." "case" "cold (s)" "memo p50 (s)"
    "speedup";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-28s %12.4f %14.5f %9.1fx@." r.sv_name r.sv_cold_s
        r.sv_memo_p50_s (sv_speedup r))
    rows;
  Fmt.pf ppf "  %-28s %12.4f %14.5f %9.1fx@." "TOTAL" (serve_total_cold rows)
    (serve_total_memo rows) (serve_total_speedup rows)

let pp_serve_overload ppf ov =
  Fmt.pf ppf
    "  overload: %d clients vs queue bound %d: %d/%d flood submissions shed \
     (%.0f%%)@."
    serve_clients serve_overload_queue_bound ov.so_shed ov.so_submissions
    (100. *. so_shed_rate ov);
  Fmt.pf ppf "  gold p50 idle %.5fs, under flood %.5fs (gate < %.2fs)@."
    ov.so_gold_idle_p50_s ov.so_gold_flood_p50_s serve_overload_job_delay_s

let write_serve_json ~path
    ((rows, tput, ov) :
      serve_row list * serve_throughput * serve_overload) =
  let case r =
    Json.Obj
      [
        ("name", Json.Str r.sv_name);
        ("cold_s", num r.sv_cold_s);
        ("memo_p50_s", num r.sv_memo_p50_s);
        ("speedup", num (sv_speedup r));
      ]
  in
  write_json path
    (Json.Obj
       [
         ( "serve",
           Json.Obj
             [
               ("target_speedup", Json.Float serve_target_speedup);
               ("cases", Json.Arr (List.map case rows));
               ("total_cold_s", num (serve_total_cold rows));
               ("total_memo_p50_s", num (serve_total_memo rows));
               ("total_speedup", num (serve_total_speedup rows));
               ( "throughput",
                 Json.Obj
                   [
                     ("clients", Json.Int serve_clients);
                     ("submissions", Json.Int tput.st_submissions);
                     ("elapsed_s", num tput.st_elapsed_s);
                     ( "verdicts_per_s",
                       num
                         (float_of_int tput.st_submissions /. tput.st_elapsed_s)
                     );
                   ] );
               ( "overload",
                 Json.Obj
                   [
                     ("clients", Json.Int serve_clients);
                     ("queue_bound", Json.Int serve_overload_queue_bound);
                     ("submissions", Json.Int ov.so_submissions);
                     ("shed", Json.Int ov.so_shed);
                     ("shed_rate", num (so_shed_rate ov));
                     ("gold_idle_p50_s", num ov.so_gold_idle_p50_s);
                     ("gold_flood_p50_s", num ov.so_gold_flood_p50_s);
                     ("max_flood_p50_s", num serve_overload_job_delay_s);
                   ] );
               ( "targets_met",
                 Json.Bool (serve_targets_met rows && serve_overload_met ov) );
             ] );
       ])

let run_serve () =
  Fmt.pr "== Service memoization: cold vs journal-memoized latency ==@.";
  let rows, tput = serve_comparison () in
  Fmt.pr "%a@." pp_serve_rows rows;
  Fmt.pr "  throughput: %d clients, %d memoized verdicts in %.2fs (%.0f/s)@."
    serve_clients tput.st_submissions tput.st_elapsed_s
    (float_of_int tput.st_submissions /. tput.st_elapsed_s);
  let ov = serve_overload_run () in
  Fmt.pr "%a@." pp_serve_overload ov;
  Fmt.pr "memoization target (total >= %.0fx): %s@." serve_target_speedup
    (if serve_targets_met rows then "met" else "NOT MET");
  Fmt.pr "overload target (sheds > 0, gold p50 under flood < %.2fs): %s@."
    serve_overload_job_delay_s
    (if serve_overload_met ov then "met" else "NOT MET");
  write_serve_json ~path:"BENCH_serve.json" (rows, tput, ov);
  Fmt.pr "wrote BENCH_serve.json@.@."

(* [--robust-only] / [--journal-only] / [--serve-only] regenerate just
   the corresponding CI artifact without paying for the bechamel
   suite. *)
let robust_only = Array.exists (String.equal "--robust-only") Sys.argv
let journal_only = Array.exists (String.equal "--journal-only") Sys.argv
let serve_only = Array.exists (String.equal "--serve-only") Sys.argv

let () =
  if robust_only then (
    Fmt.pr "FCSL robustness benchmark (budget-enforcement overhead)@.@.";
    run_robust ();
    exit 0);
  if journal_only then (
    Fmt.pr "FCSL durability benchmark (journal-armed overhead)@.@.";
    run_journal ();
    exit 0);
  if serve_only then (
    Fmt.pr "FCSL service benchmark (cold vs memoized verdict latency)@.@.";
    run_serve ();
    exit 0);
  Fmt.pr "FCSL benchmark & evaluation harness (paper: PLDI 2015)@.@.";
  let bench_rows = run_benchmarks () in
  let jobs = Pool.recommended_jobs () in
  Fmt.pr "== Engine comparison: naive vs memoized vs memoized+parallel (-j %d) ==@."
    jobs;
  let engine_rows = engine_comparison ~jobs () in
  Fmt.pr "%a@." pp_engine_rows engine_rows;
  write_bench_json ~path:"BENCH_explore.json" ~jobs bench_rows engine_rows;
  Fmt.pr "wrote BENCH_explore.json@.@.";
  run_robust ();
  run_journal ();
  run_serve ();
  Fmt.pr "== Table 1: statistics for implemented programs ==@.";
  Fmt.pr "%a@." Tables.pp_table1 (Tables.table1 ());
  Fmt.pr "== Table 2: primitive concurroids employed by programs ==@.";
  Fmt.pr "%a@." Tables.pp_table2 ();
  Fmt.pr "Table 2 matches the paper's matrix: %b@.@."
    (Tables.table2_matches_paper ());
  print_figure2 ();
  Fmt.pr "== Figure 5: dependencies between concurrent libraries ==@.";
  Fmt.pr "%a@." Tables.pp_fig5_ascii ();
  Fmt.pr "DOT form:@.%a@." Tables.pp_fig5 ();
  Fmt.pr "Figure 5 matches the paper's diagram: %b@."
    (Tables.fig5_matches_paper ())
