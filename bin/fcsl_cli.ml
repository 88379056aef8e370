(* The fcsl command-line tool.

     fcsl verify [NAME]      mechanically verify case studies
     fcsl table1             regenerate the paper's Table 1
     fcsl table2             regenerate the paper's Table 2
     fcsl deps               regenerate the paper's Figure 5
     fcsl parse FILE         parse & pretty-print a surface program
     fcsl run FILE           run a surface program on a random graph
     fcsl span               spanning-tree demo (model / extracted)
     fcsl analyze [FILE...]  static race detection + spec/concurroid lints
     fcsl lint               spec/concurroid lints over the case studies
     fcsl chaos              fault-injection harness over the registry
     fcsl jobs status DIR    inspect a write-ahead verification journal
     fcsl serve              run the verification daemon (docs/SERVICE.md)
     fcsl submit CASE...     submit cases to a running daemon

   Exit codes (stable; see docs/ROBUSTNESS.md): 0 everything verified,
   1 verification failure, 2 degraded-inconclusive (a budget forced the
   verdict below a complete exploration), 3 internal error.
*)

open Cmdliner
open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Registry = Fcsl_report.Registry
module Tables = Fcsl_report.Tables

let exit_ok = Verify.exit_ok
let exit_failed = Verify.exit_failed
let exit_internal = Verify.exit_internal

(* verify *)

(* Renders one case's verification to a string so that parallel runs
   (-j) can print whole-case blocks in registry order instead of
   interleaving lines from several domains. *)
let verify_case (c : Registry.case) : string * Verify.report list =
  let t0 = Unix.gettimeofday () in
  let reports = c.Registry.c_verify () in
  let dt = Unix.gettimeofday () -. t0 in
  let out =
    Fmt.str "@[<v2>%s:@ %a(%.2fs)@]@." c.Registry.c_name
      (Fmt.list ~sep:Fmt.cut (fun ppf r -> Fmt.pf ppf "%a@ " Verify.pp_report r))
      reports dt
  in
  (out, reports)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Verify on $(docv) domains in parallel (case studies fan out \
           over a domain pool; output order is unchanged)")

let no_dedup_flag =
  Arg.(
    value & flag
    & info [ "no-dedup" ]
        ~doc:
          "Disable configuration memoization in the scheduler and \
           re-explore every interleaving naively (slower; useful for \
           cross-checking the memoized engine)")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Arm a wall-clock budget of $(docv) seconds per triple.  On \
           exhaustion the verifier degrades (exhaustive, then seeded \
           sampling) instead of hanging, and exits 2 when the verdict \
           is thereby inconclusive")

let max_states_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Arm a budget of $(docv) explored states per triple")

let max_heap_words_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-heap-words" ] ~docv:"N"
        ~doc:"Arm a budget of $(docv) major-heap words")

let engine_seed_arg =
  Arg.(
    value & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Base seed for sampled (randomized) verification tiers; \
           recorded in the report so sampled verdicts replay exactly")

let budget_of deadline max_states max_heap_words =
  match (deadline, max_states, max_heap_words) with
  | None, None, None -> None
  | deadline_s, max_states, max_major_words ->
    Some (Budget.limits ?deadline_s ?max_states ?max_major_words ())

let journal_arg =
  Arg.(
    value & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Journal verification progress to a write-ahead journal in \
           $(docv) (created if missing): per-state durable units, \
           frontier checkpoints, counterexamples at discovery, and \
           whole-spec verdicts.  A journaled run survives kill -9; see \
           $(b,--resume)")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "With $(b,--journal), recover the journal (validating \
           checksums and truncating any torn tail) and resume: \
           journaled verdicts and units replay instead of re-exploring, \
           so an interrupted run completes with verdicts identical to \
           an uninterrupted one.  Without this flag a pre-existing \
           journal in DIR is discarded")

let fsync_arg =
  Arg.(
    value & opt (some string) None
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:
          "Journal durability policy: $(b,always) (fsync every commit), \
           $(b,interval) or $(b,interval:SECS) (group commit, fsync at \
           most every SECS seconds; default interval:0.05), $(b,never) \
           (leave flushing to the OS)")

let journal_of dir resume fsync =
  match dir with
  | None ->
    if resume then begin
      Fmt.epr "--resume requires --journal DIR@.";
      exit exit_internal
    end;
    None
  | Some dir ->
    let fsync =
      Option.map
        (fun s ->
          match Journal.fsync_policy_of_string s with
          | Ok p -> p
          | Error e ->
            Fmt.epr "bad --fsync: %s@." e;
            exit exit_internal)
        fsync
    in
    Some (Journal.openj ?fsync ~resume dir)

let verify_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let run name jobs no_dedup deadline max_states max_heap_words seed
      journal_dir resume fsync =
    let cases =
      match name with
      | None -> Registry.all
      | Some n -> (
        match Registry.find n with
        | Some c -> [ c ]
        | None ->
          Fmt.epr "unknown case study %S; available:@." n;
          List.iter
            (fun c -> Fmt.epr "  %s@." c.Registry.c_name)
            Registry.all;
          exit exit_failed)
    in
    let journal = journal_of journal_dir resume fsync in
    Option.iter
      (fun j ->
        match Journal.recovered j with
        | [] -> ()
        | rs ->
          Fmt.pr "journal: resumed from %d record(s)%s@." (List.length rs)
            (match Journal.truncated_bytes j with
            | 0 -> ""
            | n -> Fmt.str " (%d bytes of torn tail truncated)" n))
      journal;
    (* Deadlock pre-flight: the static lock-order pass is orders of
       magnitude cheaper than exploration, so surface its verdicts
       before committing to the search.  A warning, not a gate — the
       stuck-state detector inside the exploration is the sound layer;
       the static pass narrows where to look. *)
    List.iter
      (fun (c : Registry.case) ->
        match Fcsl_analysis.Deadlock.analyze_case c.Registry.c_name with
        | Some v when not (Fcsl_analysis.Deadlock.clean v) ->
          Fmt.epr
            "warning: deadlock pre-flight flagged %s before verification:@."
            c.Registry.c_name;
          List.iter
            (fun f -> Fmt.epr "  %a@." Fcsl_analysis.Diag.pp f)
            (Fcsl_analysis.Diag.errors v.Fcsl_analysis.Deadlock.v_findings)
        | Some _ | None -> ())
      cases;
    Fun.protect ~finally:(fun () -> Option.iter Journal.close journal)
    @@ fun () ->
    Verify.with_engine ~dedup:(not no_dedup)
      ?budget:(budget_of deadline max_states max_heap_words)
      ?seed ~journal
    @@ fun () ->
    let results = Pool.map ~jobs verify_case cases in
    let reports =
      List.concat_map
        (fun (out, reports) ->
          print_string out;
          reports)
        results
    in
    let code = Verify.exit_code reports in
    if code = exit_ok then Fmt.pr "all verified.@."
    else if code = Verify.exit_degraded then
      Fmt.pr "no failures, but some verdicts are budget-degraded.@.";
    code
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Mechanically verify case studies (all by default)")
    Term.(
      const run $ name_arg $ jobs_arg $ no_dedup_flag $ deadline_arg
      $ max_states_arg $ max_heap_words_arg $ engine_seed_arg $ journal_arg
      $ resume_flag $ fsync_arg)

(* jobs *)

let jobs_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Journal directory (see $(b,fcsl verify --journal))")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the schema-versioned JSON rendering instead of the \
             table — the exact payload the service daemon's status \
             endpoint returns (minus its live queue fields), so the \
             offline CLI and the daemon share one renderer")
  in
  let status dir json =
    if not (Sys.file_exists (Journal.wal_path dir))
       && not (Sys.file_exists (Journal.snapshot_path dir))
    then begin
      Fmt.epr "no journal in %s@." dir;
      exit_internal
    end
    else begin
      (* Pure read: inspecting a journal never mutates it, so a status
         query is safe while a verification run is writing. *)
      let records, torn = Journal.read dir in
      let jobs = Journal.jobs_of_records records in
      if json then begin
        (* The journal-derived subset of the health fields: the shed
           ledger's cumulative counter.  Live-only gauges (uptime,
           queue depth, ...) render as null — same schema as the
           daemon's status endpoint, one renderer. *)
        let shed_total = Fcsl_service.Server.shed_total_of_records records in
        let extra =
          Fcsl_service.Protocol.health_fields ~shed_total
            ~overload_state:Fcsl_service.Protocol.Normal ()
        in
        print_endline (Fcsl_service.Protocol.jobs_to_json ~extra jobs)
      end
      else begin
        if torn > 0 then
          Fmt.pr "(%d bytes of torn tail would be truncated on resume)@." torn;
        Fmt.pr "%a@." Journal.pp_jobs jobs
      end;
      exit_ok
    end
  in
  Cmd.group
    (Cmd.info "jobs" ~doc:"Inspect journaled verification runs")
    [
      Cmd.v
        (Cmd.info "status"
           ~doc:
             "List the runs recorded in a journal directory — complete, \
              degraded, failed, or still in flight — with their tier, \
              durable units, and consumed budget.  Read-only: safe \
              against a live journal")
        Term.(const status $ dir_arg $ json_flag);
    ]

(* serve / submit *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on / the client dials")

let serve_cmd =
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Cold-queue bound: submissions needing fresh exploration \
             beyond $(docv) queued jobs receive a structured shed frame \
             (memo-served submissions are never shed — they cost no \
             exploration).  It also sets the overload watermarks: at \
             3/4 of $(docv) queued jobs bronze submissions shed and \
             gold/silver are demoted one QoS rung with verdicts marked \
             degraded, until the queue falls to 1/4 of $(docv)")
  in
  let job_delay_arg =
    Arg.(
      value & opt float 0.
      & info [ "job-delay" ] ~docv:"SECS"
          ~doc:
            "Sleep $(docv) seconds before each job's exploration — a \
             testing aid that makes mid-job kills and queue overflow \
             deterministic")
  in
  let supervise_flag =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Run the daemon under a watchdog parent: child death (crash, \
             kill -9, OOM) is answered with a jittered-backoff restart \
             with $(b,--resume) semantics, until $(b,--restart-limit) \
             failures land inside $(b,--restart-window) seconds — then \
             the supervisor gives up with exit code 4")
  in
  let restart_limit_arg =
    Arg.(
      value & opt int 5
      & info [ "restart-limit" ] ~docv:"N"
          ~doc:"Give up after $(docv) child failures inside the window")
  in
  let restart_window_arg =
    Arg.(
      value & opt float 60.
      & info [ "restart-window" ] ~docv:"SECS"
          ~doc:"The sliding failure window for $(b,--restart-limit)")
  in
  let restart_backoff_arg =
    Arg.(
      value & opt float 0.25
      & info [ "restart-backoff" ] ~docv:"SECS"
          ~doc:
            "Base restart delay; doubles per failure in the window, with \
             jitter")
  in
  let pidfile_arg =
    Arg.(
      value & opt (some string) None
      & info [ "pidfile" ] ~docv:"PATH"
          ~doc:
            "Where the supervisor records the current child's pid \
             (default: $(i,JOURNAL)/daemon.pid when supervising)")
  in
  let rate_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"PER_SEC"
          ~doc:
            "Per-client token-bucket rate limit: submissions past the \
             bucket shed with reason rate-limited (off by default)")
  in
  let burst_arg =
    Arg.(
      value & opt int 20
      & info [ "burst" ] ~docv:"N"
          ~doc:"Token-bucket burst capacity (with $(b,--rate))")
  in
  let run socket journal_dir resume fsync queue jobs job_delay
      supervise restart_limit restart_window restart_backoff pidfile rate
      burst =
    let fsync =
      Option.map
        (fun s ->
          match Journal.fsync_policy_of_string s with
          | Ok p -> p
          | Error e ->
            Fmt.epr "bad --fsync: %s@." e;
            exit exit_internal)
        fsync
    in
    let mkcfg ~resume =
      Fcsl_service.Server.config ~resume ?fsync ~queue_bound:queue ~jobs
        ~job_delay_s:job_delay
        ?rate:(Option.map (fun r -> (r, burst)) rate)
        ~socket ~journal_dir:journal_dir ()
    in
    if not supervise then begin
      let t = Fcsl_service.Server.create (mkcfg ~resume) in
      Fmt.pr "fcsl serve: listening on %s (journal %s%s)@." socket journal_dir
        (if resume then ", resumed" else "");
      Fcsl_service.Server.run t;
      Fmt.pr "fcsl serve: drained.@.";
      exit_ok
    end
    else begin
      (* The watchdog: fork daemon children and restart them under the
         backoff budget.  The fork happens before this process ever
         spawns a domain — only the children run the engine. *)
      (try Unix.mkdir journal_dir 0o755
       with Unix.Unix_error _ | Sys_error _ -> ());
      let pidfile =
        Option.value pidfile
          ~default:(Filename.concat journal_dir "daemon.pid")
      in
      let spawn ~restart =
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
          (* not the supervisor's stop handler, which would swallow a
             forwarded SIGTERM: until the server installs its drain
             handler, a SIGTERM ends the child *)
          Sys.set_signal Sys.sigterm Sys.Signal_default;
          Sys.set_signal Sys.sigint Sys.Signal_default;
          let code =
            try
              (* every restarted child resumes: its predecessor died
                 with work possibly in flight *)
              Fcsl_service.Server.run
                (Fcsl_service.Server.create (mkcfg ~resume:(resume || restart)));
              exit_ok
            with e ->
              Fmt.epr "fcsl serve: %s@." (Printexc.to_string e);
              exit_internal
          in
          Unix._exit code
        | pid -> pid
      in
      let sup =
        Fcsl_service.Supervisor.config ~restart_limit ~window_s:restart_window
          ~backoff_base_s:restart_backoff ~pidfile
          ~log:(fun m -> Fmt.epr "%s@." m)
          ()
      in
      Fmt.pr "fcsl serve: supervising on %s (journal %s, pidfile %s)@." socket
        journal_dir pidfile;
      Fcsl_service.Supervisor.run sup ~spawn
    end
  in
  let journal_req =
    Arg.(
      required
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Journal directory backing the daemon: every job is \
             journaled through it, and its verdict records double as \
             the memo cache keyed by parameter digests")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: accept spec-verification jobs \
          over a Unix-domain socket (newline-delimited JSON), schedule \
          them under per-job QoS budgets, journal everything, and serve \
          unchanged digests from the journal memo without re-exploring. \
          SIGTERM drains gracefully; see docs/SERVICE.md")
    Term.(
      const run $ socket_arg $ journal_req $ resume_flag $ fsync_arg
      $ queue_arg $ jobs_arg $ job_delay_arg
      $ supervise_flag $ restart_limit_arg $ restart_window_arg
      $ restart_backoff_arg $ pidfile_arg $ rate_arg $ burst_arg)

let submit_cmd =
  let cases_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"CASE")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Submit every Table 1 registry case, in order")
  in
  let qos_arg =
    Arg.(
      value & opt string "gold"
      & info [ "qos" ] ~docv:"TIER"
          ~doc:
            "QoS tier: $(b,gold) (unbounded, conclusive or bust), \
             $(b,silver) (20s wall clock), $(b,bronze) (5s + 20k-state \
             ceiling); bounded tiers degrade through the verification \
             ladder instead of hanging")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print each verdict frame as one JSON line (the wire form)")
  in
  let canonical_flag =
    Arg.(
      value & flag
      & info [ "canonical" ]
          ~doc:
            "Print each verdict's diff-stable subset (case, status, \
             timing-stripped reports) as one JSON line — what the CI \
             resilience proof compares across daemon restarts")
  in
  let timeout_arg =
    Arg.(
      value & opt float 600.
      & info [ "timeout" ] ~docv:"SECS" ~doc:"Per-submission verdict timeout")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry transport failures and sheds up to $(docv) times per \
             case with jittered exponential backoff and a fresh \
             connection per attempt (a supervised daemon may be \
             mid-restart); resubmission is idempotent — a retry landing \
             after the first attempt completed is served from the memo")
  in
  let retry_budget_arg =
    Arg.(
      value & opt float 60.
      & info [ "retry-budget-s" ] ~docv:"SECS"
          ~doc:
            "Total wall-clock budget per case across all attempts and \
             backoff sleeps (with $(b,--retries))")
  in
  let run socket cases all qos json canonical timeout retries retry_budget =
    let qos =
      match Fcsl_service.Protocol.qos_of_name qos with
      | Some q -> q
      | None ->
        Fmt.epr "unknown QoS tier %S (gold, silver, bronze)@." qos;
        exit exit_internal
    in
    let cases =
      if all then List.map (fun c -> c.Registry.c_name) Registry.all
      else if cases = [] then begin
        Fmt.epr "no cases given (name them or pass --all)@.";
        exit exit_internal
      end
      else cases
    in
    (* Retrying submissions open a fresh connection per attempt (the
       whole point: the previous daemon incarnation may be gone), so the
       shared connection only exists on the non-retry path. *)
    let with_conn f =
      if retries > 0 then f None
      else begin
        let conn =
          try Fcsl_service.Client.connect ~socket
          with e ->
            Fmt.epr "cannot reach the daemon at %s: %s@." socket
              (Printexc.to_string e);
            exit exit_internal
        in
        Fun.protect ~finally:(fun () -> Fcsl_service.Client.close conn)
        @@ fun () -> f (Some conn)
      end
    in
    with_conn @@ fun conn ->
    let statuses =
      List.map
        (fun case ->
          let outcome =
            match conn with
            | Some conn ->
              Fcsl_service.Client.submit ~qos ~timeout_s:timeout conn ~case
            | None -> (
              match
                Fcsl_service.Client.submit_retry ~qos ~retries
                  ~retry_budget_s:retry_budget ~attempt_timeout_s:timeout
                  ~socket ~case ()
              with
              | Ok rv -> Ok rv.Fcsl_service.Client.rv_verdict
              | Error e -> Error e)
          in
          match outcome with
          | Ok v ->
            if json then
              print_endline (Json.to_string v.Fcsl_service.Client.v_frame)
            else if canonical then
              print_endline
                (Json.to_string
                   (Fcsl_service.Protocol.canonical_verdict
                      v.Fcsl_service.Client.v_frame))
            else
              Fmt.pr "%s: status %d%s%s@." case
                v.Fcsl_service.Client.v_status
                (if v.Fcsl_service.Client.v_memo then " (memo)" else "")
                (if v.Fcsl_service.Client.v_cancelled then " (cancelled)"
                 else "");
            v.Fcsl_service.Client.v_status
          | Error e ->
            Fmt.epr "%s: %a@." case Fcsl_service.Client.pp_submit_error e;
            exit_internal)
        cases
    in
    (* The exit-code dominance of Verify.exit_code, applied to wire
       statuses: failures beat internal errors beat degradation. *)
    if List.mem Verify.exit_failed statuses then Verify.exit_failed
    else if List.mem exit_internal statuses then exit_internal
    else if List.mem Verify.exit_degraded statuses then Verify.exit_degraded
    else exit_ok
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit registry cases to a running $(b,fcsl serve) daemon and \
          wait for verdicts (exit code follows the verify taxonomy)")
    Term.(
      const run $ socket_arg $ cases_arg $ all_flag $ qos_arg $ json_flag
      $ canonical_flag $ timeout_arg $ retries_arg $ retry_budget_arg)

(* tables *)

let table1_cmd =
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print the exploration-counter companion table: per row, \
             memo hits/misses, the most distinct configuration keys in \
             one memo bucket, and minor-heap words allocated by the \
             explorations")
  in
  let run jobs stats =
    let rows = Tables.table1 ~jobs () in
    Fmt.pr "%a@." Tables.pp_table1 rows;
    if stats then Fmt.pr "%a@." Tables.pp_table1_stats rows;
    exit_ok
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:
         "Regenerate Table 1 (LoC statistics + verify times + explored \
          states)")
    Term.(const run $ jobs_arg $ stats_flag)

let table2_cmd =
  let run () =
    Fmt.pr "%a@." Tables.pp_table2 ();
    Fmt.pr "matches the paper: %b@." (Tables.table2_matches_paper ());
    exit_ok
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate Table 2 (concurroid reuse matrix)")
    Term.(const run $ const ())

let deps_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz DOT output")
  in
  let run dot_flag =
    if dot_flag then Fmt.pr "%a@." Tables.pp_fig5 ()
    else begin
      Fmt.pr "%a@." Tables.pp_fig5_ascii ();
      Fmt.pr "matches the paper: %b@." (Tables.fig5_matches_paper ())
    end;
    exit_ok
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Regenerate Figure 5 (library dependency diagram)")
    Term.(const run $ dot)

(* laws *)

let laws_cmd =
  let run () =
    Fmt.pr "Metatheory law checks (concurroid & action laws, Sections 3.3-3.4):@.";
    if Fcsl_report.Laws.run_all () then begin
      Fmt.pr "all laws hold.@.";
      exit_ok
    end
    else exit_failed
  in
  Cmd.v
    (Cmd.info "laws"
       ~doc:
         "Check the FCSL metatheory laws of every concurroid and action in           the case-study suite")
    Term.(const run $ const ())

(* parse *)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    match Fcsl_lang.Parser.parse_program (read_file file) with
    | prog ->
      Fmt.pr "%a@." Fcsl_lang.Pp.pp_program prog;
      exit_ok
    | exception Fcsl_lang.Parser.Parse_error msg ->
      Fmt.epr "parse error: %s@." msg;
      exit_failed
    | exception Fcsl_lang.Lexer.Error (msg, line) ->
      Fmt.epr "lex error (line %d): %s@." line msg;
      exit_failed
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and pretty-print a surface-language file")
    Term.(const run $ file_arg)

(* run *)

let nodes_arg =
  Arg.(value & opt int 10 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Graph size")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed")

let extract_flag =
  Arg.(
    value & flag
    & info [ "extract" ]
        ~doc:"Run the extracted program on real OCaml 5 domains")

let run_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let proc_arg =
    Arg.(
      value & opt string "span"
      & info [ "proc" ] ~docv:"NAME" ~doc:"Procedure to invoke")
  in
  let run file proc nodes seed extract =
    let prog = Fcsl_lang.Parser.parse_program (read_file file) in
    let rng = Random.State.make [| seed |] in
    let g0 = Graph_catalog.random_connected_graph ~rng nodes in
    Fmt.pr "initial graph (%d nodes):@.%a@.@." nodes Graph.pp g0;
    let h, v =
      if extract then
        Fcsl_extract.Extract.run prog ~proc
          ~args:[ Value.ptr (Ptr.of_int 1) ]
          (Graph.to_heap g0)
      else
        Fcsl_lang.Interp.run ~seed prog ~proc
          ~args:[ Value.ptr (Ptr.of_int 1) ]
          (Graph.to_heap g0)
    in
    Fmt.pr "%s returned %a; final heap:@." proc Value.pp v;
    (match Graph.of_heap h with
    | Some g ->
      Fmt.pr "%a@.spanning tree: %b@." Graph.pp g
        (Graph.spanning g0 g (Ptr.of_int 1) (Graph.dom_set g))
    | None -> Fmt.pr "(final heap is not graph-shaped)@.");
    exit_ok
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a surface program on a random connected graph (reference \
          interpreter, or real domains with --extract)")
    Term.(const run $ file_arg $ proc_arg $ nodes_arg $ seed_arg $ extract_flag)

(* span demo *)

let span_cmd =
  let run nodes seed extract =
    let rng = Random.State.make [| seed |] in
    let g0 = Graph_catalog.random_connected_graph ~rng nodes in
    if extract then begin
      let prog =
        Fcsl_lang.Parser.parse_program Fcsl_lang.Examples.span_source
      in
      let h, v =
        Fcsl_extract.Extract.run prog ~proc:"span"
          ~args:[ Value.ptr (Ptr.of_int 1) ]
          (Graph.to_heap g0)
      in
      let g = Graph.of_heap_exn h in
      Fmt.pr "extracted span on %d nodes: returned %a, spanning %b@." nodes
        Value.pp v
        (Graph.spanning g0 g (Ptr.of_int 1) (Graph.dom_set g));
      exit_ok
    end
    else begin
      let pv = Label.make "cli_priv" and sp = Label.make "cli_span" in
      let w = World.of_list [ Priv.make pv ] in
      let st =
        State.singleton pv
          (Slice.make
             ~self:(Aux.heap (Graph.to_heap g0))
             ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
      in
      let genv, mine = Sched.genv_of_state w st in
      match
        Sched.run_random ~seed ~fuel:1_000_000 genv mine
          (Span.span_root ~pv ~sp (Ptr.of_int 1))
      with
      | Sched.Finished (r, final) ->
        let g = Graph.of_heap_exn (Priv.pv_self pv final) in
        Fmt.pr "model span on %d nodes: returned %b, spanning %b@." nodes r
          (Graph.spanning g0 g (Ptr.of_int 1) (Graph.dom_set g));
        exit_ok
      | Sched.Crashed c ->
        Fmt.epr "crash: %a@." Crash.pp c;
        exit_failed
      | Sched.Diverged ->
        Fmt.epr "diverged@.";
        exit_failed
    end
  in
  Cmd.v
    (Cmd.info "span" ~doc:"Spanning-tree demo on a random connected graph")
    Term.(const run $ nodes_arg $ seed_arg $ extract_flag)

(* analyze / lint *)

module Diag = Fcsl_analysis.Diag
module Cases = Fcsl_analysis.Cases
module Injected = Fcsl_analysis.Injected
module Surface = Fcsl_analysis.Surface

let pp_case_findings ppf (name, findings) =
  match findings with
  | [] -> Fmt.pf ppf "  %-28s clean@." name
  | fs ->
    Fmt.pf ppf "  %-28s %d finding(s)@." name (List.length fs);
    List.iter (fun f -> Fmt.pf ppf "    %a@." Diag.pp f) fs

(* Lint the registered case studies; returns true when all are clean. *)
let lint_cases () : bool =
  Fmt.pr "Case-study lints (concurroid/action laws, surface races):@.";
  let results = Cases.analyze_all () in
  List.iter (pp_case_findings Fmt.stdout) results;
  List.for_all (fun (_, fs) -> not (Diag.has_errors fs)) results

let lint_cmd =
  let run () = if lint_cases () then exit_ok else exit_failed in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the spec/concurroid lint pass over every registered case \
          study (unstable assertions, law violations, dead labels)")
    Term.(const run $ const ())

module Independence = Fcsl_analysis.Independence
module Deadlock = Fcsl_analysis.Deadlock

(* The deadlock section of the v2 JSON payload: registry verdicts plus
   the two injected scenarios, which must come back flagged. *)
let registry_deadlock_verdicts () = Deadlock.analyze_all ()

let injected_deadlock_verdicts () =
  [
    Injected.deadlock_verdict Injected.lock_inversion_scenario;
    Injected.deadlock_verdict Injected.leaked_lock_scenario;
  ]

let deadlock_json () =
  let verdicts vs = Json.Arr (List.map Deadlock.verdict_to_json vs) in
  Json.Obj
    [
      ("verdicts", verdicts (registry_deadlock_verdicts ()));
      ("injected", verdicts (injected_deadlock_verdicts ()));
    ]

let deadlock_ok () =
  List.for_all Deadlock.clean (registry_deadlock_verdicts ())
  && List.for_all
       (fun v -> not (Deadlock.clean v))
       (injected_deadlock_verdicts ())

let analyze_cmd =
  let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  let no_self_test_flag =
    Arg.(
      value & flag
      & info [ "no-self-test" ]
          ~doc:
            "Skip the failure-injection self-test (three deliberately \
             broken variants that the analyzer must flag)")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit machine-readable JSON instead of prose: one object \
             with a case entry per analyzed unit, each finding carrying \
             its stable rule id — the shape CI diffs against \
             ci/analyze-baseline.json.  Deterministic: no timestamps, \
             analyzer order")
  in
  let independence_flag =
    Arg.(
      value & flag
      & info [ "independence" ]
          ~doc:
            "Print the static independence matrices instead of the lint \
             pass: per case study, every pair of schedulable moves with \
             its verdict and located justification (footprint \
             commutation, PCM law certificate, or distinct-label env \
             confinement).  Combines with $(b,--json)")
  in
  let deadlock_flag =
    Arg.(
      value & flag
      & info [ "deadlock" ]
          ~doc:
            "Run the deadlock & progress analysis: census the \
             lock-shaped concurroids of every Table 1 row, assemble \
             lock-order graphs, report cycles and must-release \
             violations, and certify a total lock order when acyclic.  \
             The injected lock-inversion and leaked-lock scenarios must \
             come back flagged.  With $(b,--json), emits the full \
             schema-2 payload (identical to plain $(b,--json)), so both \
             CI steps diff against one committed baseline")
  in
  (* Exit codes follow the Verify.exit_code taxonomy (see
     docs/ROBUSTNESS.md): error-severity findings on genuine units — or
     a missed injected variant — are verification failures (1) and
     dominate; an input the analyzer could not run on at all
     (parse/read error) is an engine failure (3); warnings alone are
     not failures (0).  [broken] counts unanalyzable inputs, [results]
     the units that must be clean, [injected] the variants that must be
     flagged. *)
  let analyze_exit ~broken ~results ~injected =
    if
      List.exists (fun (_, fs) -> Diag.has_errors fs) results
      || List.exists (fun (_, fs) -> not (Diag.has_errors fs)) injected
    then exit_failed
    else if broken > 0 then exit_internal
    else exit_ok
  in
  (* Analyze one surface file: [Ok findings], or [Error finding] when
     the analysis could not run (the finding still renders, but counts
     toward [broken], not toward the clean/flagged verdict). *)
  let analyze_file file =
    match Surface.analyze_source ~name:file (read_file file) with
    | Ok fs -> Ok (file, fs)
    | Error msg ->
      Error
        ( file,
          [
            Diag.error ~rule:"parse-error" ~loc:file
              (Fmt.str "parse error: %s" msg);
          ] )
    | exception Sys_error msg ->
      Error (file, [ Diag.error ~rule:"read-error" ~loc:file msg ])
  in
  (* The independence matrices, prose or JSON. *)
  let run_independence json =
    let ms = Independence.analyze_all () in
    if json then
      print_endline
        (Json.to_string (Json.Arr (List.map Independence.matrix_to_json ms)))
    else
      List.iter (fun m -> Fmt.pr "%a@.@." Independence.pp_matrix m) ms;
    (* Lie demotions surface at verification time; the matrices
       themselves carry no failure verdicts, so a completed derivation
       is ok by the taxonomy. *)
    analyze_exit ~broken:0 ~results:[] ~injected:[]
  in
  (* The lint pass as JSON: surface files, case studies, injected
     variants, one entry each, plus the schema-2 deadlock section; exit
     logic identical to the prose path. *)
  let run_json files no_self_test =
    let file_results = List.map analyze_file files in
    let broken =
      List.length (List.filter Result.is_error file_results)
    in
    let file_ok, file_broken =
      List.partition_map
        (function Ok r -> Left r | Error r -> Right r)
        file_results
    in
    let case_results = Cases.analyze_all () in
    let injected_results =
      if no_self_test then []
      else
        List.map
          (fun (n, fs) -> ("injected:" ^ n, fs))
          (Injected.all_variants ())
    in
    print_endline
      (Json.to_string
         (Diag.results_to_json ~deadlock:(deadlock_json ())
            (file_ok @ file_broken @ case_results @ injected_results)));
    let code =
      analyze_exit ~broken
        ~results:(file_ok @ case_results)
        ~injected:injected_results
    in
    if code = exit_ok && not (deadlock_ok ()) then exit_failed else code
  in
  (* Deadlock-only prose: the registry verdicts with their certified
     orders, then the injected scenarios, which must be flagged. *)
  let run_deadlock () =
    Fmt.pr "Deadlock & progress analysis (lock-order graphs):@.";
    let verdicts = registry_deadlock_verdicts () in
    List.iter (fun v -> Fmt.pr "  %a@." Deadlock.pp_verdict v) verdicts;
    Fmt.pr "Injected scenarios (each must be flagged):@.";
    let injected = injected_deadlock_verdicts () in
    List.iter
      (fun (v : Deadlock.verdict) ->
        Fmt.pr "  %-16s %s@." v.Deadlock.v_case
          (if Deadlock.clean v then
             "MISSED — analyzer failed to flag this scenario"
           else Fmt.str "flagged (%d finding(s))" (List.length v.Deadlock.v_findings));
        List.iter (fun f -> Fmt.pr "    %a@." Diag.pp f) v.Deadlock.v_findings)
      injected;
    if
      List.for_all Deadlock.clean verdicts
      && List.for_all (fun v -> not (Deadlock.clean v)) injected
    then begin
      Fmt.pr "deadlock: ok@.";
      exit_ok
    end
    else exit_failed
  in
  let run_prose files no_self_test =
    (* 1. Surface files given on the command line.  Every file is
       analyzed and printed before the verdict is computed — the exit
       code reflects all of them, not just the first failure. *)
    let file_results = List.map analyze_file files in
    List.iter
      (fun r ->
        match r with
        | Ok (file, []) -> Fmt.pr "%s: clean@." file
        | Ok (file, fs) | Error (file, fs) ->
          Fmt.pr "%s:@." file;
          List.iter (fun f -> Fmt.pr "  %a@." Diag.pp f) fs)
      file_results;
    let broken = List.length (List.filter Result.is_error file_results) in
    let file_ok = List.filter_map Result.to_option file_results in
    (* 2. Registered case studies must be clean. *)
    let cases_ok = lint_cases () in
    (* 3. Injected broken variants must each be flagged. *)
    let injected_results =
      if no_self_test then []
      else begin
        Fmt.pr "Failure-injection self-test (each variant must be flagged):@.";
        let vs = Injected.all_variants () in
        List.iter
          (fun (name, fs) ->
            Fmt.pr "  %-28s %s@." name
              (if Diag.has_errors fs then
                 Fmt.str "flagged (%d finding(s))" (List.length fs)
               else "MISSED — analyzer failed to flag this variant");
            List.iter (fun f -> Fmt.pr "    %a@." Diag.pp f) fs)
          vs;
        vs
      end
    in
    let code =
      analyze_exit ~broken ~results:file_ok ~injected:injected_results
    in
    let code = if cases_ok then code else exit_failed in
    if code = exit_ok then Fmt.pr "analyze: ok@.";
    code
  in
  let run files no_self_test json independence deadlock =
    if independence then run_independence json
    else if deadlock then if json then run_json [] no_self_test else run_deadlock ()
    else if json then run_json files no_self_test
    else run_prose files no_self_test
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze surface-language files for races, lint the \
          registered case studies, self-test against injected bugs, run \
          the deadlock & progress pass (with $(b,--deadlock)), and \
          (with $(b,--independence)) derive the action-independence \
          matrices")
    Term.(
      const run $ files_arg $ no_self_test_flag $ json_flag
      $ independence_flag $ deadlock_flag)

(* chaos *)

module Chaos = Fcsl_analysis.Chaos

let chaos_cmd =
  let registry_flag =
    Arg.(
      value & flag
      & info [ "registry" ]
          ~doc:
            "Run the registry-wide injection modes over every Table 1 \
             row (this is also the default; the flag exists so CI \
             invocations are explicit about their scope)")
  in
  let mode_arg =
    Arg.(
      value & opt (some string) None
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Run a single engine injection mode (pool-transient, \
             pool-persistent, mid-explore, budget-starve, spurious-cas, \
             transient-unsafe, env-burst, kill9-midrun); default: all \
             eight.  The daemon's faults are staged by the service \
             tests and the CI drills (docs/ROBUSTNESS.md)")
  in
  let case_arg =
    Arg.(
      value & opt_all string []
      & info [ "case" ] ~docv:"NAME"
          ~doc:
            "Restrict registry-wide modes to the given Table 1 row \
             (repeatable); default: the whole registry")
  in
  let run _registry mode cases seed =
    let cases = match cases with [] -> None | cs -> Some cs in
    let outcomes =
      match mode with
      | None -> Chaos.run_all ?cases ~seed ()
      | Some n -> (
        match Chaos.mode_of_name n with
        | Some m -> Chaos.run ?cases ~seed m
        | None ->
          Fmt.epr "unknown chaos mode %S; available:@." n;
          List.iter
            (fun m -> Fmt.epr "  %s@." (Chaos.mode_name m))
            Chaos.all_modes;
          exit exit_failed)
    in
    Fmt.pr "Fault injection (%d outcomes):@." (List.length outcomes);
    List.iter (fun o -> Fmt.pr "  %a@." Chaos.pp_outcome o) outcomes;
    let failed = List.filter (fun o -> not o.Chaos.o_passed) outcomes in
    if failed = [] then begin
      Fmt.pr "chaos: all injections survived.@.";
      exit_ok
    end
    else begin
      Fmt.pr "chaos: %d injection(s) NOT survived.@." (List.length failed);
      exit_failed
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject faults (worker exceptions, budget starvation, spurious \
          CAS failures, transient unsafety, interference bursts) and \
          assert the verification engine's verdicts and accounting \
          survive them")
    Term.(const run $ registry_flag $ mode_arg $ case_arg $ seed_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "fcsl" ~version:"1.0.0"
       ~doc:
         "Mechanized verification of fine-grained concurrent programs \
          (FCSL, PLDI 2015) — OCaml reproduction")
    [
      verify_cmd; table1_cmd; table2_cmd; deps_cmd; laws_cmd; parse_cmd;
      run_cmd; span_cmd; analyze_cmd; lint_cmd; chaos_cmd; jobs_cmd;
      serve_cmd; submit_cmd;
    ]

(* Anything escaping a subcommand is an engine failure: exit 3, never a
   raw OCaml backtrace as the only diagnosis. *)
let () =
  match Cmd.eval' main_cmd with
  | code -> exit code
  | exception e ->
    Fmt.epr "fcsl: internal error: %s@." (Printexc.to_string e);
    exit exit_internal
