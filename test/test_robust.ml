(* Resilience machinery (docs/ROBUSTNESS.md): budgets trip exactly and
   stickily, crashes are structured values, the supervised pool retries
   then quarantines without losing sibling results, the degradation
   ladder always terminates with an explicit tier — never a hang — and
   seeded sampled verdicts replay bit-identically.  The expensive cases
   run under a hard [Unix.alarm] watchdog: if the engine hangs, the
   alarm converts the hang into a test failure. *)

open Fcsl_core
open Fcsl_casestudies

let check = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* A hang anywhere in the budgeted engine is the one bug this suite
   exists to catch; the alarm turns it into a loud failure instead of a
   stuck CI job. *)
let with_watchdog secs f =
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> failwith "watchdog: engine hung"))
  in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f

(* --- Budget ---------------------------------------------------------- *)

let test_budget_state_ceiling () =
  check "no_limits is unlimited" true (Budget.is_unlimited Budget.no_limits);
  check "a tick hook arms the budget" false
    (Budget.is_unlimited (Budget.limits ~tick_hook:(fun () -> ()) ()));
  let b = Budget.arm (Budget.limits ~max_states:5 ()) in
  for _ = 1 to 4 do
    Budget.tick b
  done;
  check "under the ceiling: no trip" true (Budget.tripped b = None);
  Budget.tick b;
  check "at the ceiling: tripped" true
    (Budget.tripped b = Some Budget.State_ceiling);
  Alcotest.(check int) "states charged" 5 (Budget.states b);
  (* sticky: later ticks cannot clear or change the reason *)
  for _ = 1 to 20 do
    Budget.tick b
  done;
  check "trip is sticky" true (Budget.tripped b = Some Budget.State_ceiling);
  let s = Budget.stats b in
  Alcotest.(check (option string))
    "stats record the reason" (Some "state-ceiling") s.Budget.st_tripped;
  match Budget.crash b with
  | Some c ->
    check "crash kind" true (Crash.kind c = Crash.Budget_exhausted)
  | None -> Alcotest.fail "tripped budget has no crash"

let test_budget_deadline () =
  (* an attempt armed past its (ladder-shared) absolute deadline must
     fall through on its very first tick *)
  let b =
    Budget.arm ~deadline_at:(Unix.gettimeofday () -. 1.0) Budget.no_limits
  in
  Budget.tick b;
  check "expired deadline trips on first tick" true
    (Budget.tripped b = Some Budget.Deadline)

let test_budget_hook () =
  let fired = ref 0 in
  let b = Budget.arm (Budget.limits ~tick_hook:(fun () -> incr fired) ()) in
  for _ = 1 to 3 do
    Budget.tick b
  done;
  Alcotest.(check int) "hook runs on every tick" 3 !fired;
  check "hook alone never trips" true (Budget.tripped b = None)

(* --- Crash ----------------------------------------------------------- *)

let test_crash_values () =
  let c = Crash.of_exn (Crash.Injected "boom") in
  check "Injected maps to Injected_fault" true
    (Crash.kind c = Crash.Injected_fault);
  check "message is prefixed" true
    (Crash.message c = "injected fault: boom");
  let i = Crash.of_exn (Failure "bad") in
  check "other exceptions map to Internal_error" true
    (Crash.kind i = Crash.Internal_error);
  (* equality ignores the discovering schedule: memoized replay may
     discover the same crash along a different first trace *)
  let a = Crash.make ~trace:[ "s1"; "s2" ] Crash.Unsafe_action "m" in
  let b = Crash.make ~trace:[ "t9" ] Crash.Unsafe_action "m" in
  check "equal ignores traces" true (Crash.equal a b);
  check "equal respects kind" false
    (Crash.equal a (Crash.make Crash.Postcondition "m"));
  let j = Json.to_string (Crash.to_json a) in
  check "json carries kind" true
    (contains j "\"unsafe-action\"");
  check "json carries schedule" true
    (contains j "\"s1\"");
  let rendered = Fmt.str "%a" Crash.pp a in
  check "pp carries schedule" true
    (contains rendered "[schedule: s1 ; s2]")

(* --- Pool ------------------------------------------------------------ *)

exception Boom of int

let test_pool_retry_absorbs () =
  (* each item fails on its first attempt only: the retry must absorb
     every failure and return a full, ordered result list *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let mu = Mutex.create () in
  let flaky x =
    let first =
      Mutex.lock mu;
      let f = not (Hashtbl.mem seen x) in
      if f then Hashtbl.add seen x ();
      Mutex.unlock mu;
      f
    in
    if first then raise (Boom x) else x * 10
  in
  let rs = Pool.map_result ~jobs:4 flaky [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int))
    "all items recovered, in order"
    [ 10; 20; 30; 40; 50; 60; 70; 80 ]
    (List.map (function Ok v -> v | Error _ -> -1) rs)

let test_pool_quarantine () =
  let f x = if x = 3 then raise (Boom x) else x + 100 in
  let rs = Pool.map_result ~jobs:3 f [ 1; 2; 3; 4 ] in
  (match rs with
  | [ Ok 101; Ok 102; Error e; Ok 104 ] ->
    check "quarantined exception" true (e.Pool.e_exn = Boom 3);
    Alcotest.(check int) "attempts = 1 + retries" 2 e.Pool.e_attempts;
    check "quarantine records the backoff slept" true (e.Pool.e_backoff_s > 0.);
    check "pp_error mentions the backoff" true
      (contains (Fmt.str "%a" Pool.pp_error e) "backoff")
  | _ -> Alcotest.fail "sibling results were lost or reordered");
  (* [until] ends the results at the first item that satisfies it, a
     quarantine included, whatever [jobs] is; with one domain no item
     past it runs *)
  let ran = Atomic.make 0 in
  let g x =
    Atomic.incr ran;
    f x
  in
  let until = function Ok v -> v = 102 | Error _ -> true in
  let shape rs = List.map (function Ok v -> v | Error _ -> -1) rs in
  List.iter
    (fun jobs ->
      Atomic.set ran 0;
      Alcotest.(check (list int))
        (Printf.sprintf "until: prefix through the first match (-j %d)" jobs)
        [ 101; 102 ]
        (shape (Pool.map_result ~jobs ~until g [ 1; 2; 3; 4; 5; 6 ]));
      Alcotest.(check (list int))
        (Printf.sprintf "until: a quarantine ends the prefix (-j %d)" jobs)
        [ 104; -1 ]
        (shape (Pool.map_result ~jobs ~until g [ 4; 3; 5; 6 ])))
    [ 1; 3 ];
  Atomic.set ran 0;
  ignore (Pool.map_result ~jobs:1 ~until g [ 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check int) "until: -j 1 runs nothing past the match" 2
    (Atomic.get ran);
  Alcotest.(check (list int)) "until never met: every item" [ 101; 104 ]
    (shape (Pool.map_result ~jobs:2 ~until g [ 1; 4 ]));
  (* the all-or-nothing wrapper re-raises instead of dropping results *)
  match Pool.map ~jobs:2 f [ 1; 2; 3 ] with
  | _ -> Alcotest.fail "Pool.map must re-raise"
  | exception Boom 3 -> ()

let test_pool_backoff () =
  (* the jittered exponential schedule is deterministic in (seed, item,
     attempt), grows with the attempt, and stays within [0.5x, 1.5x] of
     the exponential base *)
  let d1 = Pool.backoff_delay ~seed:0 ~base:0.01 5 2 in
  let d1' = Pool.backoff_delay ~seed:0 ~base:0.01 5 2 in
  Alcotest.(check (float 0.)) "deterministic in (seed, item, attempt)" d1 d1';
  check "different items draw different jitter" true
    (d1 <> Pool.backoff_delay ~seed:0 ~base:0.01 6 2);
  check "different seeds draw different jitter" true
    (d1 <> Pool.backoff_delay ~seed:1 ~base:0.01 5 2);
  List.iter
    (fun k ->
      let d = Pool.backoff_delay ~seed:3 ~base:0.01 0 k in
      let expo = 0.01 *. (2. ** float_of_int (k - 2)) in
      check
        (Printf.sprintf "attempt %d within jitter band" k)
        true
        (d >= 0.5 *. expo && d <= 1.5 *. expo))
    [ 2; 3; 4; 5 ];
  (* retried-then-succeeded work still returns Ok and slept the delay *)
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let once_flaky x =
    if Hashtbl.mem seen x then x
    else begin
      Hashtbl.add seen x ();
      raise (Boom x)
    end
  in
  let t0 = Unix.gettimeofday () in
  let rs = Pool.map_result ~jobs:1 ~backoff_s:0.02 ~backoff_seed:5 once_flaky [ 9 ] in
  let dt = Unix.gettimeofday () -. t0 in
  check "retry succeeded" true (rs = [ Ok 9 ]);
  check "the retry actually slept" true
    (dt >= Pool.backoff_delay ~seed:5 ~base:0.02 0 2 *. 0.9)

(* --- The degradation ladder ------------------------------------------ *)

(* An exploration far larger than the ceiling: the ladder must walk
   exhaustive -> sampled and stop with an explicit degraded verdict,
   promptly. *)
let test_ladder_degrades () =
  with_watchdog 60 (fun () ->
      let module C = Cg_incr.Cas in
      let r =
        Verify.with_engine
          ~budget:(Budget.limits ~max_states:8 ~deadline_s:20.0 ())
          ~seed:7
        @@ fun () ->
        Verify.check_triple ~fuel:12 ~env_budget:1 ~world:(C.world ())
          ~init:(C.init_states ())
          (C.incr_pair C.label)
          (C.incr_pair_spec C.label)
      in
      check "no spurious failure" true (r.Verify.failures = []);
      check "no worker crash" true (r.Verify.worker_crashes = []);
      check "tier fell to sampled" true (r.Verify.tier = Verify.Sampled);
      check "sampling cannot prove" false r.Verify.complete;
      Alcotest.(check (option int)) "seed recorded" (Some 7) r.Verify.seed;
      check "budget stats present" true (r.Verify.budget <> None);
      check "report is degraded, not ok-silent" true (Verify.degraded r);
      Alcotest.(check int) "exit code: degraded" Verify.exit_degraded
        (Verify.exit_code [ r ]))

(* Counterexamples found before the trip are sound: a budgeted run of a
   refuted spec must still report failures and exit 1, not 2. *)
let test_failures_beat_degradation () =
  with_watchdog 60 (fun () ->
      let r =
        Verify.with_engine
          ~budget:(Budget.limits ~deadline_s:20.0 ())
          (fun () -> Snapshot.refute_unchecked ())
      in
      check "refutation survives the budget" false (Verify.ok r);
      Alcotest.(check int) "exit code: failed" Verify.exit_failed
        (Verify.exit_code [ r ]))

let test_exit_code_priority () =
  let base =
    {
      Verify.spec_name = "synthetic";
      tier = Verify.Exhaustive;
      seed = None;
      initial_states = 1;
      outcomes = 1;
      diverged = 0;
      complete = true;
      states = 1;
      failures = [];
      worker_crashes = [];
      budget = None;
      expl = None;
    }
  in
  let failure =
    { Verify.initial = State.empty; crash = Crash.make Crash.Postcondition "x" }
  in
  let tripped_stats =
    {
      Budget.st_elapsed_s = 0.1;
      st_states = 8;
      st_major_words = 0;
      st_tripped = Some "state-ceiling";
    }
  in
  let degraded =
    { base with Verify.tier = Verify.Sampled; complete = false;
      budget = Some tripped_stats }
  in
  let failed = { base with Verify.failures = [ failure ] } in
  let crashed = { base with Verify.worker_crashes = [ failure ] } in
  Alcotest.(check int) "ok" Verify.exit_ok (Verify.exit_code [ base ]);
  Alcotest.(check int) "degraded" Verify.exit_degraded
    (Verify.exit_code [ base; degraded ]);
  Alcotest.(check int) "crashes beat degradation" Verify.exit_internal
    (Verify.exit_code [ degraded; crashed ]);
  Alcotest.(check int) "failures beat everything" Verify.exit_failed
    (Verify.exit_code [ degraded; crashed; failed ])

(* --- Cancel racing the deadline -------------------------------------- *)

(* Both trip causes live at once, hammered from several threads: the
   sticky compare-and-set must record exactly one cause, every observer
   must agree on it, and later ticks under both still-live conditions
   must never change it. *)
let test_cancel_deadline_race () =
  let b =
    Budget.arm (Budget.limits ~deadline_s:0. ~cancel:(fun () -> true) ())
  in
  let m = 4 in
  let seen = Array.make m None in
  let threads =
    List.init m (fun i ->
        Thread.create
          (fun () ->
            for _ = 1 to 500 do
              Budget.tick b
            done;
            seen.(i) <- Budget.tripped b)
          ())
  in
  List.iter Thread.join threads;
  let final = Budget.tripped b in
  check "the race tripped" true (Option.is_some final);
  check "the cause is one of the racers" true
    (final = Some Budget.Deadline || final = Some Budget.Cancelled);
  Array.iter
    (fun s -> check "every thread observed the same single cause" true
        (s = final))
    seen;
  for _ = 1 to 100 do
    Budget.tick b
  done;
  check "the cause is sticky with both conditions still live" true
    (Budget.tripped b = final)

(* A cancel trip mid-exhaustive aborts the ladder at its current rung:
   no sampled attempt may run after the trip, so a cancelled job can
   never surface a lower-rung verdict that could be mistaken for honest
   degradation. *)
let test_cancel_aborts_ladder () =
  with_watchdog 60 (fun () ->
      let module C = Cg_incr.Cas in
      let n = ref 0 in
      let r =
        Verify.with_engine
          ~budget:
            (Budget.limits
               ~tick_hook:(fun () -> incr n)
               ~cancel:(fun () -> !n > 30)
               ~deadline_s:20.0 ())
          ~seed:7
        @@ fun () ->
        Verify.check_triple ~fuel:12 ~env_budget:1 ~world:(C.world ())
          ~init:(C.init_states ())
          (C.incr_pair C.label)
          (C.incr_pair_spec C.label)
      in
      check "ladder stopped at the rung the cancel hit" true
        (r.Verify.tier = Verify.Exhaustive);
      check "no sampled rung ran after the trip" true (r.Verify.seed = None);
      check "cancellation cannot prove" false r.Verify.complete;
      check "no spurious failure" true (r.Verify.failures = []);
      match r.Verify.budget with
      | Some st ->
        Alcotest.(check (option string))
          "exactly the cancel cause recorded" (Some "cancelled")
          st.Budget.st_tripped
      | None -> Alcotest.fail "no budget stats on a cancelled report")

(* --- The ladder's journal trail --------------------------------------- *)

let write_spec_name = "write_wx(1)"

(* Pair snapshot's x-writer at its Table 1 bounds, journaled into [j]
   under a 100-state ceiling that its exhaustive space exceeds about
   twice over, so the run must descend the ladder.  The program declares
   a footprint, which must not change the descent. *)
let budgeted_write j =
  Verify.with_engine
    ~budget:(Budget.limits ~max_states:100 ())
    ~seed:7 ~journal:(Some j)
  @@ fun () ->
  Verify.check_triple ~fuel:18 ~env_budget:2 ~world:(Snapshot.world ())
    ~init:(Snapshot.init_states ())
    (Prog.act (Snapshot.write_cell Snapshot.sp_label Snapshot.x_cell 1))
    (Snapshot.write_spec Snapshot.sp_label Snapshot.x_cell 1)

let journal_records dir =
  List.filter
    (function
      | Journal.Spec_begin { spec; _ } | Journal.Tier_begin { spec; _ } ->
        spec = write_spec_name
      | _ -> false)
    (fst (Journal.read dir))

let tier_markers dir =
  List.filter_map
    (function Journal.Tier_begin { tier; _ } -> Some tier | _ -> None)
    (journal_records dir)

let with_journal ?resume dir f =
  let j = Journal.openj ?resume dir in
  Fun.protect ~finally:(fun () -> Journal.close j) (fun () -> f j)

(* The ladder has two rungs: a failure-free trip of the exhaustive rung
   goes straight to sampling, and the journal shows exactly that. *)
let test_ladder_rungs () =
  with_watchdog 60 (fun () ->
      let dir = Test_journal.tmp_dir () in
      let r = with_journal dir budgeted_write in
      Alcotest.(check (list string))
        "rungs walked" [ "exhaustive"; "sampled" ] (tier_markers dir);
      check "tier is sampled" true (r.Verify.tier = Verify.Sampled);
      Alcotest.(check (option int)) "seed recorded" (Some 7) r.Verify.seed;
      check "report is degraded" true (Verify.degraded r))

(* A resumed run whose journal already reached the sampled rung
   re-enters there: it journals no new exhaustive attempt. *)
let test_ladder_resume_sampled () =
  with_watchdog 60 (fun () ->
      let params =
        let dir = Test_journal.tmp_dir () in
        ignore (with_journal dir budgeted_write);
        match
          List.find_map
            (function
              | Journal.Spec_begin { params; _ } -> Some params | _ -> None)
            (journal_records dir)
        with
        | Some p -> p
        | None -> Alcotest.fail "no Spec_begin journaled"
      in
      let dir = Test_journal.tmp_dir () in
      with_journal dir (fun j ->
          List.iter (Journal.append j)
            [
              Journal.Spec_begin { spec = write_spec_name; params };
              Journal.Tier_begin
                { spec = write_spec_name; tier = "exhaustive"; seed = None };
              Journal.Tier_begin
                { spec = write_spec_name; tier = "sampled"; seed = Some 7 };
            ]);
      let r = with_journal ~resume:true dir budgeted_write in
      Alcotest.(check (list string))
        "only a sampled marker appended"
        [ "exhaustive"; "sampled"; "sampled" ]
        (tier_markers dir);
      check "tier is sampled" true (r.Verify.tier = Verify.Sampled);
      Alcotest.(check (option int)) "seed recorded" (Some 7) r.Verify.seed)

(* Everything a sampled report promises, rendered canonically; budget
   stats are excluded (wall-clock and heap words are not replayable). *)
let canon_report (r : Verify.report) =
  Fmt.str "%s|%s|%a|%d|%d|%d|%b|%a|%a" r.Verify.spec_name
    (Verify.tier_name r.Verify.tier)
    Fmt.(option int)
    r.Verify.seed r.Verify.initial_states r.Verify.outcomes r.Verify.diverged
    r.Verify.complete
    Fmt.(list ~sep:comma Crash.pp)
    (List.map (fun f -> f.Verify.crash) r.Verify.failures)
    Fmt.(list ~sep:comma Crash.pp)
    (List.map (fun f -> f.Verify.crash) r.Verify.worker_crashes)

(* --- The sampled-only journal path -------------------------------------- *)

(* Pair snapshot's reader, sampled: 9 eligible initial states, 5 seeded
   trials each, journaled under base seed 7. *)
let journaled_read_pair ?resume dir =
  with_journal ?resume dir (fun j ->
      let units = Journal.completed_units j in
      let r =
        Verify.with_engine ~seed:7 ~journal:(Some j) @@ fun () ->
        Verify.check_triple_random ~fuel:12 ~trials:5
          ~world:(Snapshot.world ())
          ~init:(Snapshot.init_states ())
          (Snapshot.read_pair Snapshot.sp_label)
          (Snapshot.read_pair_spec Snapshot.sp_label)
      in
      (r, units, Journal.completed_units j))

(* One line per record: its kind and the fields resume keys on. *)
let record_shape = function
  | Journal.Meta _ -> "meta"
  | Journal.Spec_begin { params; _ } ->
    "begin " ^ List.hd (String.split_on_char ',' params)
  | Journal.Tier_begin { tier; seed; _ } ->
    Fmt.str "tier %s %a" tier Fmt.(option ~none:(any "-") int) seed
  | Journal.State_done { tier; index; _ } -> Fmt.str "unit %s %d" tier index
  | Journal.Spec_done ri -> "done " ^ ri.Journal.ri_tier
  | r -> Fmt.str "%a" Journal.pp_record r

let units_shape lo hi =
  List.init (hi - lo + 1) (fun i -> Fmt.str "unit sampled %d" (lo + i))

(* [check_triple_random] journals a Spec_begin, its one sampled rung and
   every unit, then the verdict; a resumed run replays the verdict
   wholesale, and a run over a journal holding only some units explores
   just the rest. *)
let test_random_journal () =
  with_watchdog 60 (fun () ->
      let dir = Test_journal.tmp_dir () in
      let r, _, units = journaled_read_pair dir in
      let records = fst (Journal.read dir) in
      Alcotest.(check (list string))
        "records of a fresh run"
        ([ "meta"; "begin mode=rand"; "tier sampled 7" ]
        @ units_shape 0 8 @ [ "done sampled" ])
        (List.map record_shape records);
      check "one spec journaled" true
        (List.for_all
           (function
             | Journal.Meta _ -> true
             | Journal.Spec_begin { spec; _ }
             | Journal.Tier_begin { spec; _ }
             | Journal.State_done { spec; _ } ->
               spec = r.Verify.spec_name
             | Journal.Spec_done ri -> ri.Journal.ri_spec = r.Verify.spec_name
             | _ -> false)
           records);
      Alcotest.(check int) "9 units and the verdict" 10 units;
      (* resumed: the verdict replays, nothing but a Meta is appended *)
      let r2, before, after = journaled_read_pair ~resume:true dir in
      Alcotest.(check string)
        "replayed report" (canon_report r) (canon_report r2);
      Alcotest.(check int) "no unit completed on replay" before after;
      Alcotest.(check (list string))
        "replay appends only a Meta"
        (List.map record_shape records @ [ "meta" ])
        (List.map record_shape (fst (Journal.read dir)));
      (* a journal cut after unit 3: units 0-3 replay, 4-8 are explored *)
      let seeded =
        List.filter
          (function
            | Journal.Spec_begin _ | Journal.Tier_begin _ -> true
            | Journal.State_done { index; _ } -> index < 4
            | _ -> false)
          records
      in
      let dir = Test_journal.tmp_dir () in
      with_journal dir (fun j -> List.iter (Journal.append j) seeded);
      let prefix = List.length (fst (Journal.read dir)) in
      let r3, _, _ = journaled_read_pair ~resume:true dir in
      Alcotest.(check string)
        "resumed report" (canon_report r) (canon_report r3);
      Alcotest.(check (list string))
        "only units 4-8 and the verdict explored"
        ([ "meta"; "begin mode=rand"; "tier sampled 7" ]
        @ units_shape 4 8 @ [ "done sampled" ])
        (List.filteri
           (fun i _ -> i >= prefix)
           (List.map record_shape (fst (Journal.read dir)))))

(* --- Seeded replay --------------------------------------------------- *)

let prop_seeded_replay =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15 ~name:"seeded sampled runs replay"
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 6 14))
       (fun (seed, fuel) ->
         let run () =
           Verify.with_engine ~seed @@ fun () ->
           Verify.check_triple_random ~fuel ~trials:20
             ~world:(Snapshot.world ())
             ~init:(Snapshot.init_states ())
             (Snapshot.read_pair Snapshot.sp_label)
             (Snapshot.read_pair_spec Snapshot.sp_label)
         in
         let a = run () and b = run () in
         if canon_report a <> canon_report b then
           QCheck2.Test.fail_reportf "reports differ:@.%s@.%s" (canon_report a)
             (canon_report b);
         a.Verify.seed = Some seed && a.Verify.tier = Verify.Sampled))

(* --- Crash JSON round-trip ------------------------------------------- *)

(* [Crash.of_json] inverts [Crash.to_json] for arbitrary kinds,
   messages and schedules — including the characters the JSON escape
   layer has to work for (quotes, backslashes, newlines, control
   bytes).  Equality is [Crash.equal] (kind + message) plus exact trace
   equality, which [to_json] serializes and [equal] deliberately
   ignores. *)
let prop_crash_json_round_trip =
  let all_kinds =
    [
      Crash.Unsafe_action; Crash.Ghost_algebra; Crash.Postcondition;
      Crash.Budget_exhausted; Crash.Injected_fault;
      Crash.Internal_error; Crash.Deadlock;
      Crash.Protocol_error; Crash.Io_fault;
    ]
  in
  let gen =
    QCheck2.Gen.(
      triple (oneofl all_kinds) string (list_size (int_range 0 5) string))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"of_json inverts to_json" gen
       (fun (kind, msg, trace) ->
         let c = Crash.make ~trace kind msg in
         let s = Json.to_string (Crash.to_json c) in
         match Result.bind (Json.parse s) Crash.of_json with
         | Ok c' -> Crash.equal c c' && Crash.trace c' = Crash.trace c
         | Error e -> QCheck2.Test.fail_reportf "of_json failed on %s: %s" s e))

let test_crash_json_errors () =
  let bad s =
    match Result.bind (Json.parse s) Crash.of_json with
    | Ok _ -> false
    | Error _ -> true
  in
  check "empty input" true (bad "");
  check "not an object" true (bad "[1,2]");
  check "missing kind" true (bad {|{"msg": "m", "schedule": []}|});
  check "unknown kind" true
    (bad {|{"kind": "novel-disaster", "msg": "m", "schedule": []}|});
  check "trailing garbage" true
    (bad ({|{"kind": "unsafe-action", "msg": "m", "schedule": []}|} ^ "xx"));
  check "bad escape" true (bad {|{"kind": "unsafe-action", "msg": "\q"}|});
  (* unknown keys are skipped, not errors *)
  match
    Result.bind
      (Json.parse
         {|{"kind": "unsafe-action", "extra": {"deep": [1, "x"]}, "msg": "m", "schedule": ["a"]}|})
      Crash.of_json
  with
  | Ok c ->
    check "unknown keys skipped" true
      (Crash.kind c = Crash.Unsafe_action
      && Crash.message c = "m"
      && Crash.trace c = [ "a" ])
  | Error e -> Alcotest.failf "unknown keys should be skipped: %s" e

(* The bytes a crash leaves the process as, pinned: the journal stores
   [Json.to_string (Crash.to_json c)] and the daemon's error frame
   carries the same object, so a drift in either breaks resuming old
   journals or decoding old frames, which the round-trip property above
   cannot see.  The crash covers every escape class (quote, backslash,
   newline, tab, a 0x01 byte) and multibyte UTF-8, which passes through
   unescaped. *)
let pinned_crash =
  Crash.make
    ~trace:[ "t1: cas(x, \"a\")\t\xe2\x9c\x93"; "env\\step\n\x01 na\xc3\xafve" ]
    Crash.Postcondition
    "say \"hi\" \\path\nnext\tcol\x01ctl caf\xc3\xa9 \xe2\x86\x92 done"

let pinned_crash_json =
  {|{"kind": "postcondition", "msg": "say \"hi\" \\path\nnext\u0009col\u0001ctl café → done", "schedule": ["t1: cas(x, \"a\")\u0009✓", "env\\step\n\u0001 naïve"]}|}

let pinned_error_frame =
  {|{"type": "error", "job": 3, "crash": {"kind": "postcondition", "msg": "say \"hi\" \\path\nnext\u0009col\u0001ctl café → done", "schedule": ["t1: cas(x, \"a\")\u0009✓", "env\\step\n\u0001 naïve"]}}|}

let test_crash_json_bytes () =
  Alcotest.(check string)
    "journal bytes" pinned_crash_json
    (Json.to_string (Crash.to_json pinned_crash));
  Alcotest.(check string)
    "error frame bytes" pinned_error_frame
    (Fcsl_service.Protocol.error_frame ~job:3 pinned_crash);
  let decodes what s crash_of =
    match Result.bind (Json.parse s) crash_of with
    | Ok c ->
      check (what ^ " decodes to the same crash") true
        (Crash.kind c = Crash.kind pinned_crash
        && Crash.message c = Crash.message pinned_crash
        && Crash.trace c = Crash.trace pinned_crash)
    | Error e -> Alcotest.failf "%s does not decode: %s" what e
  in
  decodes "journal bytes" pinned_crash_json Crash.of_json;
  decodes "error frame" pinned_error_frame (fun v ->
      match Json.member "crash" v with
      | Some c -> Crash.of_json c
      | None -> Error "no crash member")

(* --- Chaos (cheap subset) -------------------------------------------- *)

(* The full registry sweep runs in CI ([fcsl chaos --registry]); here a
   cheap row exercises every mode end to end. *)
let test_chaos_subset () =
  with_watchdog 240 (fun () ->
      let outs = Fcsl_analysis.Chaos.run_all ~cases:[ "CAS-lock" ] () in
      check "every mode produced outcomes" true
        (List.length outs >= List.length Fcsl_analysis.Chaos.all_modes);
      List.iter
        (fun o ->
          if not o.Fcsl_analysis.Chaos.o_passed then
            Alcotest.failf "injection not survived: %a"
              Fcsl_analysis.Chaos.pp_outcome o)
        outs)

let suite =
  [
    Alcotest.test_case "budget: state ceiling, sticky trip" `Quick
      test_budget_state_ceiling;
    Alcotest.test_case "budget: expired deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget: tick hook" `Quick test_budget_hook;
    Alcotest.test_case "crash: structured values" `Quick test_crash_values;
    Alcotest.test_case "pool: retry absorbs transient faults" `Quick
      test_pool_retry_absorbs;
    Alcotest.test_case "pool: quarantine keeps siblings" `Quick
      test_pool_quarantine;
    Alcotest.test_case "pool: jittered exponential backoff" `Quick
      test_pool_backoff;
    Alcotest.test_case "ladder: tiny budget degrades to sampled" `Quick
      test_ladder_degrades;
    Alcotest.test_case "ladder: found failures beat degradation" `Quick
      test_failures_beat_degradation;
    Alcotest.test_case "budget: cancel racing deadline, one sticky cause"
      `Quick test_cancel_deadline_race;
    Alcotest.test_case "ladder: cancel aborts at the tripped rung" `Quick
      test_cancel_aborts_ladder;
    Alcotest.test_case "exit codes: priority" `Quick test_exit_code_priority;
    prop_seeded_replay;
    prop_crash_json_round_trip;
    Alcotest.test_case "crash json: malformed inputs are errors" `Quick
      test_crash_json_errors;
    Alcotest.test_case "crash json: journal and wire bytes pinned" `Quick
      test_crash_json_bytes;
    Alcotest.test_case "chaos: cheap registry row survives all modes" `Quick
      test_chaos_subset;
    Alcotest.test_case "ladder: journal shows exhaustive then sampled" `Quick
      test_ladder_rungs;
    Alcotest.test_case "ladder: resume re-enters at the sampled rung" `Quick
      test_ladder_resume_sampled;
    Alcotest.test_case "journal: sampled-only run records, replays, resumes"
      `Quick test_random_journal;
  ]
