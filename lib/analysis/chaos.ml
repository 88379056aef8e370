(* Fault-injection harness: exercise the verification engine's
   resilience machinery (supervised pool, budget ladder, structured
   crashes) by injecting faults at every layer and asserting that
   verdicts and accounting survive.

   Two families of mode:

   - Registry-wide modes wrap the opaque [c_verify] thunks of every
     Table 1 row.  The injection channel is [Budget.limits.l_tick_hook]
     — the scheduler charges one tick per explored configuration, so a
     raising hook is an exception at an arbitrary point of an arbitrary
     exploration.  The fault-free baseline is computed once per case
     and cached.

   - Action-level modes build bespoke scenarios around wrapped actions
     (spurious CAS failure, transiently-unsafe [safe]).  Wrappers carry
     mutable or state-hashed nondeterminism, which would violate the
     memoizing keyer's immutable-captures assumption, so these modes
     run only under the Sampled tier ([check_triple_random], which
     never memoizes).

   [Kill9_midrun] is registry-wide too, but stages real process death:
   it forks journaling children and SIGKILLs them mid-exploration.

   The daemon's faults are not staged here: the service test suite and
   the CI drills own them (docs/ROBUSTNESS.md §6 names each one's
   home). *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Registry = Fcsl_report.Registry

type mode =
  | Pool_transient
  | Pool_persistent
  | Mid_explore
  | Budget_starve
  | Spurious_cas
  | Transient_unsafe
  | Env_burst
  | Kill9_midrun

let all_modes =
  [
    Pool_transient; Pool_persistent; Mid_explore; Budget_starve; Spurious_cas;
    Transient_unsafe; Env_burst; Kill9_midrun;
  ]

let mode_name = function
  | Pool_transient -> "pool-transient"
  | Pool_persistent -> "pool-persistent"
  | Mid_explore -> "mid-explore"
  | Budget_starve -> "budget-starve"
  | Spurious_cas -> "spurious-cas"
  | Transient_unsafe -> "transient-unsafe"
  | Env_burst -> "env-burst"
  | Kill9_midrun -> "kill9-midrun"

let mode_of_name n = List.find_opt (fun m -> mode_name m = n) all_modes
let pp_mode ppf m = Fmt.string ppf (mode_name m)

type outcome = {
  o_mode : mode;
  o_case : string;
  o_passed : bool;
  o_detail : string;
}

let pp_outcome ppf o =
  Fmt.pf ppf "%-17s %-28s %s  %s" (mode_name o.o_mode) o.o_case
    (if o.o_passed then "ok  " else "FAIL")
    o.o_detail

(* --- shared helpers ------------------------------------------------- *)

let registry_cases ?cases () =
  match cases with
  | None -> Registry.all
  | Some names ->
    List.filter (fun c -> List.mem c.Registry.c_name names) Registry.all

(* The fault-free baseline of a registry row, cached: several modes
   compare against it and each [c_verify] is a full verification. *)
let baseline_cache : (string, Verify.report list) Hashtbl.t =
  Hashtbl.create 16

let baseline (c : Registry.case) =
  match Hashtbl.find_opt baseline_cache c.Registry.c_name with
  | Some r -> r
  | None ->
    let r = c.Registry.c_verify () in
    Hashtbl.add baseline_cache c.Registry.c_name r;
    r

(* Verdict equality between a baseline and a chaos run: everything the
   engine promises to preserve under absorbed transient faults.  Budget
   stats are intentionally excluded (the chaos run armed one). *)
let same_verdicts (base : Verify.report list) (chaos : Verify.report list) :
    (unit, string) result =
  if List.length base <> List.length chaos then
    Error
      (Fmt.str "report count %d <> %d" (List.length base) (List.length chaos))
  else
    let diff =
      List.find_map
        (fun (b, h) ->
          let open Verify in
          if b.spec_name <> h.spec_name then
            Some (Fmt.str "spec %s <> %s" b.spec_name h.spec_name)
          else if ok b <> ok h then Some (b.spec_name ^ ": ok differs")
          else if b.tier <> h.tier then Some (b.spec_name ^ ": tier differs")
          else if b.initial_states <> h.initial_states then
            Some (b.spec_name ^ ": initial_states differ")
          else if b.outcomes <> h.outcomes then
            Some (b.spec_name ^ ": outcomes differ")
          else if b.diverged <> h.diverged then
            Some (b.spec_name ^ ": diverged differs")
          else if b.complete <> h.complete then
            Some (b.spec_name ^ ": complete differs")
          else if
            not
              (List.equal
                 (fun f g -> Crash.equal f.crash g.crash)
                 b.failures h.failures)
          then Some (b.spec_name ^ ": failure sets differ")
          else if h.worker_crashes <> [] then
            Some (b.spec_name ^ ": unexpected worker crashes")
          else None)
        (List.combine base chaos)
    in
    match diff with None -> Ok () | Some d -> Error d

(* An escaped exception is itself a harness failure, never a crash of
   the harness. *)
let outcome mode case (f : unit -> (string, string) result) : outcome =
  match f () with
  | Ok detail -> { o_mode = mode; o_case = case; o_passed = true; o_detail = detail }
  | Error detail ->
    { o_mode = mode; o_case = case; o_passed = false; o_detail = detail }
  | exception e ->
    {
      o_mode = mode;
      o_case = case;
      o_passed = false;
      o_detail = "escaped exception: " ^ Printexc.to_string e;
    }

(* --- registry-wide modes -------------------------------------------- *)

(* Re-verify a case with a tick hook injected through the engine's
   budget (the hook makes the budget non-trivial, arming it on every
   [check_triple] without any actual ceiling). *)
let verify_with_hook hook (c : Registry.case) =
  Verify.with_engine
    ~budget:(Budget.limits ~tick_hook:hook ())
    c.Registry.c_verify

let transient_hook () =
  let fired = Atomic.make false in
  fun () ->
    if not (Atomic.exchange fired true) then
      raise (Crash.Injected "chaos: transient worker fault")

let mid_explore_hook () =
  let n = Atomic.make 0 in
  fun () ->
    if Atomic.fetch_and_add n 1 = 50 then
      raise (Crash.Injected "chaos: fault mid-exploration")

let persistent_hook () () = raise (Crash.Injected "chaos: persistent fault")

let run_absorbed mode hook_of ?cases () =
  List.map
    (fun c ->
      outcome mode c.Registry.c_name (fun () ->
          let base = baseline c in
          let chaos = verify_with_hook (hook_of ()) c in
          Result.map
            (fun () -> "verdicts identical to fault-free baseline")
            (same_verdicts base chaos)))
    (registry_cases ?cases ())

let run_persistent ?cases () =
  List.map
    (fun c ->
      outcome Pool_persistent c.Registry.c_name (fun () ->
          let chaos = verify_with_hook (persistent_hook ()) c in
          let code = Verify.exit_code chaos in
          if code <> Verify.exit_internal then
            Error (Fmt.str "exit code %d, wanted %d" code Verify.exit_internal)
          else if
            (* a report whose precondition admits no initial state never
               runs a worker, so it legitimately has nothing to crash *)
            not
              (List.for_all
                 (fun r ->
                   (r.Verify.initial_states = 0
                   || r.Verify.worker_crashes <> [])
                   && List.for_all
                        (fun f ->
                          Crash.kind f.Verify.crash = Crash.Injected_fault)
                        r.Verify.worker_crashes)
                 chaos)
          then Error "a report is missing injected-fault worker quarantines"
          else if
            not (List.exists (fun r -> r.Verify.worker_crashes <> []) chaos)
          then Error "no worker was quarantined at all"
          else Ok "all workers quarantined as injected-fault, exit code 3"))
    (registry_cases ?cases ())

(* Starvation ceilings: small enough to trip every real exploration,
   with a wall-clock deadline backstop so the whole ladder is bounded
   even if state counting were somehow defeated. *)
let starve_limits () = Budget.limits ~max_states:64 ~deadline_s:10.0 ()

let run_starve ?cases ?(seed = 1) () =
  List.map
    (fun c ->
      outcome Budget_starve c.Registry.c_name (fun () ->
          let reports =
            Verify.with_engine ~budget:(starve_limits ()) ~seed
              c.Registry.c_verify
          in
          let bad =
            List.find_opt
              (fun r ->
                let open Verify in
                let sound = r.failures <> [] in
                let conclusive = ok r && r.complete && not (degraded r) in
                let degraded_ok =
                  degraded r
                  && r.budget <> None
                  && (r.tier <> Sampled || r.seed = Some seed)
                in
                not (sound || conclusive || degraded_ok))
              reports
          in
          match bad with
          | Some r ->
            Error
              (Fmt.str "%s: neither sound nor explicitly degraded (tier %s)"
                 r.Verify.spec_name (Verify.tier_name r.Verify.tier))
          | None ->
            Ok
              (Fmt.str "%d reports: all sound or explicitly degraded"
                 (List.length reports))))
    (registry_cases ?cases ())

(* --- action-level modes --------------------------------------------- *)

(* The bespoke scenario: a spin-lock increment over the CAS lock's
   counter resource — acquisition is an explicit [try_lock ~await:false]
   retry loop, so a spurious CAS failure is benign (one more spin), and
   the critical section gives a natural place for a transiently-unsafe
   read. *)
module C = Cg_incr.Cas

let spin_incr ~(try_lock : bool Action.t) ~(read : Value.t Action.t) :
    unit Prog.t =
  let open Prog in
  let* () =
    ffix
      (fun loop () ->
        let* got = act try_lock in
        if got then ret () else loop ())
      ()
  in
  let* v = act read in
  let v = Option.value (Value.as_int v) ~default:0 in
  let* () = act (Caslock.write C.label C.cfg C.x_cell (Value.int (v + 1))) in
  Caslock.unlock C.label C.cfg C.resource ~delta:(Aux.nat 1)

let plain_try_lock () = Caslock.try_lock ~await:false C.label C.cfg
let plain_read () = Caslock.read C.label C.cfg C.x_cell

(* CAS that fails spuriously ~1/3 of the time: returns [false] without
   touching the state, exactly what a weak CAS is allowed to do.  The
   wrapper keeps the base action's safety/enabledness/footprint, so the
   only divergence is extra spins.  Mutable RNG in the step makes this
   wrapper illegal under memoized exploration — Sampled tier only. *)
let flaky_try_lock rng =
  let base = plain_try_lock () in
  Action.make
    ~name:(Action.name_thunk base)
    ~enabled:(Action.enabled base)
    ~fp:(Action.footprint base)
    ~safe:(Action.safe base)
    ~phys:(Action.phys base)
    ~step:(fun st ->
      if Random.State.int rng 3 = 0 then (false, st)
      else Action.step_exn base st)
    ()

(* [safe] that spuriously answers [false] in some states: each distinct
   state (by its rendering) gets a sticky verdict on first encounter,
   alternating unsafe/safe — so at least one reached state is unsafe,
   and [safe] stays a function of the state, which every caller that
   checks it more than once relies on ([Action.step_exn] checks it
   again; the scheduler checks it once per move and then steps
   unchecked).  The wrapped step goes through the base action's own
   [step_exn], whose safety never answers spuriously. *)
let flaky_unsafe_read () =
  let base = plain_read () in
  let decided : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  let next_unsafe = ref true in
  let spuriously_unsafe st =
    let key = Fmt.str "%a" State.pp st in
    match Hashtbl.find_opt decided key with
    | Some b -> b
    | None ->
      let b = !next_unsafe in
      next_unsafe := not b;
      Hashtbl.add decided key b;
      b
  in
  Action.make
    ~name:(Action.name_thunk base)
    ~enabled:(Action.enabled base)
    ~fp:(Action.footprint base)
    ~safe:(fun st -> (not (spuriously_unsafe st)) && Action.safe base st)
    ~phys:(Action.phys base)
    ~step:(fun st -> Action.step_exn base st)
    ()

let sampled_spin ~seed ~try_lock ~read =
  Verify.with_engine ~budget:Budget.no_limits ~seed @@ fun () ->
  Verify.check_triple_random ~fuel:400 ~trials:50 ~interference:false
    ~world:(C.world ()) ~init:(C.init_states ())
    (spin_incr ~try_lock ~read)
    (C.incr_spec C.label ())

let run_spurious_cas ?(seed = 1) () =
  [
    outcome Spurious_cas "spin-lock increment" (fun () ->
        let base =
          sampled_spin ~seed ~try_lock:(plain_try_lock ()) ~read:(plain_read ())
        in
        let rng = Random.State.make [| seed |] in
        let chaos =
          sampled_spin ~seed ~try_lock:(flaky_try_lock rng)
            ~read:(plain_read ())
        in
        if not (Verify.ok base) then Error "baseline spin increment not ok"
        else if not (Verify.ok chaos) then
          Error "spurious CAS failures broke the verdict"
        else if chaos.Verify.tier <> Verify.Sampled then
          Error "expected a Sampled-tier report"
        else Ok "retry loop absorbs spurious CAS failures; verdict ok");
  ]

let run_transient_unsafe ?(seed = 1) () =
  [
    outcome Transient_unsafe "spin-lock increment" (fun () ->
        let chaos =
          sampled_spin ~seed ~try_lock:(plain_try_lock ())
            ~read:(flaky_unsafe_read ())
        in
        if chaos.Verify.failures = [] then
          Error "transient unsafety produced no recorded failure"
        else if
          not
            (List.for_all
               (fun f -> Crash.kind f.Verify.crash = Crash.Unsafe_action)
               chaos.Verify.failures)
        then Error "a failure was not classified unsafe-action"
        else if chaos.Verify.worker_crashes <> [] then
          Error "unsafety escaped as an engine crash"
        else
          Ok
            (Fmt.str
               "%d structured unsafe-action failures, engine intact"
               (List.length chaos.Verify.failures)));
  ]

let run_env_burst ?(seed = 1) () =
  let snapshot =
    outcome Env_burst "pair snapshot" (fun () ->
        let r =
          Verify.with_engine ~budget:Budget.no_limits ~seed @@ fun () ->
          Verify.check_triple_random ~fuel:400 ~trials:60 ~interference:true
            ~world:(Snapshot.world ()) ~init:(Snapshot.init_states ())
            (Snapshot.read_pair Snapshot.sp_label)
            (Snapshot.read_pair_spec Snapshot.sp_label)
        in
        if not (Verify.ok r) then
          Error "interference bursts broke the snapshot verdict"
        else Ok (Fmt.str "ok under %d bursty sampled runs" r.Verify.outcomes))
  in
  let incr =
    outcome Env_burst "CG increment" (fun () ->
        let r =
          Verify.with_engine ~budget:Budget.no_limits ~seed @@ fun () ->
          Verify.check_triple_random ~fuel:400 ~trials:60 ~interference:true
            ~world:(C.world ()) ~init:(C.init_states ())
            (C.incr C.label ())
            (C.incr_spec C.label ())
        in
        if not (Verify.ok r) then
          Error "interference bursts broke the increment verdict"
        else Ok (Fmt.str "ok under %d bursty sampled runs" r.Verify.outcomes))
  in
  [ snapshot; incr ]

(* --- kill9-midrun: crash-recovery across process death --------------- *)

(* The durability property (see docs/ROBUSTNESS.md): a verification run
   journaling to a write-ahead journal can be SIGKILLed at an arbitrary
   instant and resumed, repeatedly, and the eventually-completed run's
   verdicts are identical to an uninterrupted unjournaled run's — while
   the journal's durable-unit count grows monotonically across the
   kills.

   Mechanics: fork a child per cycle; the child arms a budget tick hook
   that SIGKILLs its own process at a randomized tick (the hook fires
   mid-exploration, so the kill lands at an arbitrary point of journal
   activity — possibly mid-record, which is exactly the torn tail
   recovery truncates).  The kill tick grows per cycle so every cycle
   makes fresh progress past the replayed units; after the cycle budget
   a final in-process resume completes the run and is compared to the
   baseline. *)

let kill9_limits kill_at =
  let n = Atomic.make 0 in
  Budget.limits
    ~tick_hook:(fun () ->
      if Atomic.fetch_and_add n 1 = kill_at then
        Unix.kill (Unix.getpid ()) Sys.sigkill)
    ()

let str_contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let kill9_max_cycles = 8

let run_kill9 ?cases ?(seed = 1) () =
  List.map
    (fun c ->
      outcome Kill9_midrun c.Registry.c_name (fun () ->
          let base = baseline c in
          let dir =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Fmt.str "fcsl-kill9-%d-%s" (Unix.getpid ())
                 (String.map
                    (fun ch ->
                      match ch with
                      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ch
                      | _ -> '-')
                    c.Registry.c_name))
          in
          (* start from a clean journal: a stale one would fake resume *)
          Journal.close (Journal.openj ~resume:false dir);
          let count_units () =
            let records, _ = Journal.read dir in
            List.fold_left
              (fun acc j -> acc + j.Journal.j_units)
              0
              (Journal.jobs_of_records records)
          in
          let rng = Random.State.make [| seed; Hashtbl.hash c.Registry.c_name |] in
          let prev_units = ref 0 in
          let monotone () =
            let u = count_units () in
            if u < !prev_units then
              Error (Fmt.str "durable units shrank: %d -> %d" !prev_units u)
            else begin
              prev_units := u;
              Ok u
            end
          in
          (* One kill cycle: fork, let the child verify-with-journal and
             self-SIGKILL at [kill_at] ticks, reap it.  [Ok true] when
             the child finished before the kill fired. *)
          let cycle kill_at =
            (* the child inherits the parent's buffered output; flush so
               its [_exit] cannot double-print *)
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
              let code =
                match
                  let j = Journal.openj ~resume:true dir in
                  Fun.protect
                    ~finally:(fun () -> Journal.close j)
                    (fun () ->
                      Verify.with_engine ~journal:(Some j)
                        ~budget:(kill9_limits kill_at) ~seed
                        c.Registry.c_verify)
                with
                | _reports -> 0
                | exception _ -> 10
              in
              (* [_exit]: no atexit, no flushing of inherited channels *)
              Unix._exit code
            | pid -> (
              match snd (Unix.waitpid [] pid) with
              | Unix.WSIGNALED s when s = Sys.sigkill -> Ok false
              | Unix.WEXITED 0 -> Ok true
              | Unix.WEXITED n -> Error (Fmt.str "child exited %d" n)
              | Unix.WSIGNALED s -> Error (Fmt.str "child killed by signal %d" s)
              | Unix.WSTOPPED s -> Error (Fmt.str "child stopped by signal %d" s))
          in
          let rec cycles i kills =
            if i >= kill9_max_cycles then Ok kills
            else
              (* grows per cycle so each child out-runs the replayed
                 prefix, but starts low enough to land kills even on
                 small registry rows *)
              let kill_at = 25 + (i * i * 120) + Random.State.int rng 50 in
              match cycle kill_at with
              | Error _ as e -> e
              | Ok finished -> (
                match monotone () with
                | Error _ as e -> e
                | Ok _ -> if finished then Ok kills else cycles (i + 1) (kills + 1))
          in
          match cycles 0 0 with
          | exception Failure msg when str_contains msg "fork" ->
            (* OCaml 5 forbids [Unix.fork] in any process that has ever
               spawned a domain; inside the test binary the pool suites
               run first, so real process death cannot be staged here.
               The standalone CLI ([fcsl chaos --mode kill9-midrun])
               never spawns domains and forks for real. *)
            Ok (Fmt.str "skipped: fork unavailable (%s)" msg)
          | Error e -> Error e
          | Ok kills -> (
            (* final in-process resume: completed specs replay wholesale,
               interrupted ones re-enter at their journaled rung *)
            let j = Journal.openj ~resume:true dir in
            let resumed =
              Fun.protect
                ~finally:(fun () -> Journal.close j)
                (fun () ->
                  Verify.with_engine ~journal:(Some j) ~seed
                    c.Registry.c_verify)
            in
            match (same_verdicts base resumed, monotone ()) with
            | Error e, _ -> Error ("after resume: " ^ e)
            | _, Error e -> Error e
            | Ok (), Ok units ->
              Ok
                (Fmt.str
                   "%d SIGKILL%s absorbed, %d durable units, resumed \
                    verdicts identical to baseline"
                   kills
                   (if kills = 1 then "" else "s")
                   units))))
    (registry_cases ?cases ())

(* --- drivers -------------------------------------------------------- *)

let run ?cases ?(seed = 1) mode : outcome list =
  match mode with
  | Pool_transient -> run_absorbed Pool_transient transient_hook ?cases ()
  | Mid_explore -> run_absorbed Mid_explore mid_explore_hook ?cases ()
  | Pool_persistent -> run_persistent ?cases ()
  | Budget_starve -> run_starve ?cases ~seed ()
  | Spurious_cas -> run_spurious_cas ~seed ()
  | Transient_unsafe -> run_transient_unsafe ~seed ()
  | Env_burst -> run_env_burst ~seed ()
  | Kill9_midrun -> run_kill9 ?cases ~seed ()

let run_all ?cases ?(seed = 1) () =
  List.concat_map (run ?cases ~seed) all_modes
