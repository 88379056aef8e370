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
     never memoizes). *)

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
  | Service_client_kill
  | Service_torn_frames
  | Service_kill9
  | Service_supervisor_kill
  | Service_overload_flood
  | Journal_enospc
  | Client_retry_partition

let all_modes =
  [
    Pool_transient; Pool_persistent; Mid_explore; Budget_starve; Spurious_cas;
    Transient_unsafe; Env_burst; Kill9_midrun; Service_client_kill;
    Service_torn_frames; Service_kill9; Service_supervisor_kill;
    Service_overload_flood; Journal_enospc; Client_retry_partition;
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
  | Service_client_kill -> "service-client-kill"
  | Service_torn_frames -> "service-torn-frames"
  | Service_kill9 -> "service-kill9"
  | Service_supervisor_kill -> "service-supervisor-kill"
  | Service_overload_flood -> "service-overload-flood"
  | Journal_enospc -> "journal-enospc"
  | Client_retry_partition -> "client-retry-partition"

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
    ~name:(Action.name base)
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
   and the scheduler's safety check and [step_exn]'s internal recheck
   always agree (a fresh random draw per call would let the first pass
   and raise from the second, escaping the engine as
   [Invalid_argument]). *)
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
    ~name:(Action.name base)
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

(* --- service modes -------------------------------------------------- *)

(* The remaining modes attack the verification daemon ([fcsl serve])
   rather than the engine underneath it: clients killed mid-stream,
   torn or malformed wire frames, and a kill -9 of the daemon itself
   between group commits followed by a [--resume] restart.  The
   invariants are the service's robustness contract: verdicts never
   flip (canonical wire verdicts stay baseline-identical), durable
   units stay monotone across daemon deaths, cancelled work is never
   journaled as a memoizable verdict, and every frame — garbage
   included — gets a structured answer, never a hang or a crash. *)

module Protocol = Fcsl_service.Protocol
module Server = Fcsl_service.Server
module Client = Fcsl_service.Client

let ( let* ) = Result.bind

(* Service modes default to a small case subset: each outcome stands up
   (and tears down) a whole daemon, so a registry-wide sweep would
   re-verify Table 1 many times over.  An explicit [cases] restriction
   still wins. *)
let service_cases ?cases ~default () =
  registry_cases ~cases:(Option.value cases ~default) ()

let svc_counter = ref 0

let svc_paths tag =
  incr svc_counter;
  let stamp = Fmt.str "fcsl-chaos-%s-%d-%d" tag (Unix.getpid ()) !svc_counter in
  let tmp = Filename.get_temp_dir_name () in
  (Filename.concat tmp (stamp ^ ".sock"), Filename.concat tmp stamp)

(* Run [f] against a fresh in-process daemon on a fresh journal.
   [jobs] stays 1 — an in-process server must not spawn domains, or a
   later [Service_kill9] fork in the same chaos run would be forbidden
   by the runtime — and the baseline of any case [f] compares against
   must be computed *before* this call: the executor thread and
   [baseline] both read the one process-global engine. *)
let with_server ?(job_delay_s = 0.) ?queue_bound ?overload_high ?overload_low
    ?rate ~tag f =
  let socket, dir = svc_paths tag in
  Journal.close (Journal.openj ~resume:false dir);
  let cfg =
    Server.config ~signals:false ~jobs:1 ~job_delay_s ?queue_bound
      ?overload_high ?overload_low ?rate ~socket ~journal_dir:dir ()
  in
  let t = Server.create cfg in
  let th = Thread.create Server.run t in
  let finish () =
    Server.stop t;
    Thread.join th
  in
  if not (Client.wait_ready ~socket ()) then begin
    finish ();
    Error "in-process daemon never answered a ping"
  end
  else Fun.protect ~finally:finish (fun () -> f ~socket ~dir)

let canon frame = Json.to_string (Protocol.canonical_verdict frame)

(* Render the fault-free baseline through the same wire path the daemon
   uses, so chaos verdicts compare canonical-to-canonical. *)
let baseline_canon (c : Registry.case) =
  let frame =
    Protocol.verdict ~job:0 ~case:c.Registry.c_name ~digest:"" ~memo:false
      ~fresh_units:0 ~cancelled:false ~reports:(baseline c) ()
  in
  match Json.parse frame with
  | Ok v -> canon v
  | Error e -> Fmt.failwith "unrenderable baseline verdict: %s" e

(* A client SIGKILLed mid-stream: the daemon must cancel the orphaned
   job through the budget's cancel probe, settle it in the ledger as
   cancelled (never as a memoizable verdict), stay responsive, and
   serve a fresh resubmission whose verdict equals the baseline. *)
let run_service_client_kill ?cases () =
  List.map
    (fun c ->
      let name = c.Registry.c_name in
      outcome Service_client_kill name (fun () ->
          let expect = baseline_canon c in
          with_server ~tag:"ckill" ~job_delay_s:0.4 (fun ~socket ~dir ->
              (* submit, read the ack, vanish mid-stream: the delay
                 keeps the job pre-exploration while the disconnect
                 lands, so cancellation goes through the cancel probe *)
              let c1 = Client.connect ~socket in
              Client.send c1
                (Protocol.Submit { case = name; qos = Protocol.Gold });
              let* _ack =
                Result.map_error
                  (fun e -> "no ack before the kill: " ^ e)
                  (Client.read_frame ~timeout_s:10. c1)
              in
              Client.abandon c1;
              (* wait for the ledger to settle the orphan *)
              let spec = "job/" ^ Protocol.digest ~case:name ~qos:Protocol.Gold in
              let tiers_of () =
                let records, _ = Journal.read dir in
                List.filter_map
                  (function
                    | Journal.Spec_done ri when ri.Journal.ri_spec = spec ->
                      Some ri.Journal.ri_tier
                    | _ -> None)
                  records
              in
              let deadline = Unix.gettimeofday () +. 15. in
              let rec settle () =
                match tiers_of () with
                | [] when Unix.gettimeofday () < deadline ->
                  Thread.delay 0.05;
                  settle ()
                | tiers -> tiers
              in
              match settle () with
              | [] -> Error "the orphaned job never settled in the ledger"
              | tiers when List.mem "service" tiers ->
                Error "a cancelled job was journaled as a memoizable verdict"
              | _ ->
                (* the daemon survived; a fresh client re-explores and
                   lands exactly the baseline verdict *)
                let c2 = Client.connect ~socket in
                if not (Client.ping c2) then
                  Error "daemon unresponsive after the client kill"
                else (
                  match Client.submit c2 ~case:name with
                  | Error e ->
                    Error
                      (Fmt.str "resubmit failed: %a" Client.pp_submit_error e)
                  | Ok v ->
                    Client.close c2;
                    if v.Client.v_memo then
                      Error "resubmission hit a memo that must not exist"
                    else if canon v.Client.v_frame <> expect then
                      Error "resubmitted verdict differs from the baseline"
                    else
                      Ok
                        "orphan cancelled and never memoized; resubmission \
                         matches the baseline"))))
    (service_cases ?cases ~default:[ "CAS-lock" ] ())

(* Garbage the torn-frames mode feeds the daemon, one frame per failure
   class of the protocol parser plus raw non-JSON bytes. *)
let torn_lines =
  [
    "{\"op\": \"submit\", \"ca";
    "\001\002\255 binary garbage";
    "[1, 2, 3]";
    "{\"op\": \"frobnicate\"}";
    "{\"op\": \"submit\"}";
    "{\"op\": \"submit\", \"case\": \"CAS-lock\", \"qos\": \"platinum\"}";
    "{\"op\": \"cancel\"}";
    "{\"msg\": \"no op at all\"}";
  ]

(* Torn and malformed frames: every garbage line must come back as a
   structured protocol-error crash frame — never a hang, a dropped
   connection or a daemon crash — and the same connection must keep
   serving well-formed traffic afterwards, with verdicts unchanged. *)
let run_service_torn_frames ?cases () =
  List.map
    (fun c ->
      let name = c.Registry.c_name in
      outcome Service_torn_frames name (fun () ->
          let expect = baseline_canon c in
          with_server ~tag:"torn" (fun ~socket ~dir:_ ->
              let cn = Client.connect ~socket in
              let answer line =
                Client.send_raw cn line;
                match Client.read_frame ~timeout_s:10. cn with
                | Error e ->
                  Error (Fmt.str "no answer to torn frame %S: %s" line e)
                | Ok frame -> (
                  let kind =
                    Option.bind (Json.member "crash" frame) (fun cr ->
                        Option.bind (Json.member "kind" cr) Json.to_str)
                  in
                  match
                    (Option.bind (Json.member "type" frame) Json.to_str, kind)
                  with
                  | Some "error", Some "protocol-error" -> Ok ()
                  | ty, _ ->
                    Error
                      (Fmt.str
                         "torn frame %S answered with %s, wanted a \
                          protocol-error crash"
                         line
                         (Option.value ty ~default:"nothing")))
              in
              let* () =
                List.fold_left
                  (fun acc line -> Result.bind acc (fun () -> answer line))
                  (Ok ()) torn_lines
              in
              (* an unknown case through a well-formed submit is the
                 same structured answer *)
              let* () =
                match Client.submit cn ~case:"No Such Case" with
                | Error (Client.Server_error cr)
                  when Crash.kind cr = Crash.Protocol_error ->
                  Ok ()
                | Error e ->
                  Error
                    (Fmt.str "unknown case: wanted a protocol-error, got %a"
                       Client.pp_submit_error e)
                | Ok _ -> Error "unknown case: got a verdict"
              in
              if not (Client.ping cn) then
                Error "daemon stopped answering pings after the garbage"
              else (
                match Client.submit cn ~case:name with
                | Error e ->
                  Error
                    (Fmt.str "well-formed submit after garbage failed: %a"
                       Client.pp_submit_error e)
                | Ok v ->
                  Client.close cn;
                  if canon v.Client.v_frame <> expect then
                    Error "verdict after garbage differs from the baseline"
                  else
                    Ok
                      (Fmt.str
                         "%d torn frames answered with structured \
                          protocol-error crashes; verdict unchanged"
                         (List.length torn_lines + 1))))))
    (service_cases ?cases ~default:[ "CAS-lock" ] ())

(* kill -9 the daemon itself between group commits, restart with
   resume, and demand baseline-identical canonical verdicts plus a
   fully-memoized repeat pass.  Forks a real daemon process, so — like
   [Kill9_midrun] — it only runs where no domain was ever spawned (the
   standalone chaos CLI); under the test binary it reports skipped. *)
let run_service_kill9 ?cases () =
  let cs =
    service_cases ?cases
      ~default:[ "CAS-lock"; "Ticketed lock"; "Pair snapshot" ] ()
  in
  match cs with
  | [] -> []
  | _ ->
    let names = List.map (fun c -> c.Registry.c_name) cs in
    [
      outcome Service_kill9 (String.concat ", " names) (fun () ->
          (* writes to a SIGKILLed daemon's socket must be EPIPE
             errors, not a process-killing signal *)
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let expects =
            List.map (fun c -> (c.Registry.c_name, baseline_canon c)) cs
          in
          let socket, dir = svc_paths "skill9" in
          Journal.close (Journal.openj ~resume:false dir);
          let count_units () =
            let records, _ = Journal.read dir in
            List.fold_left
              (fun acc j -> acc + j.Journal.j_units)
              0
              (Journal.jobs_of_records records)
          in
          let spawn ~resume ~job_delay_s =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
              let code =
                match
                  Server.run
                    (Server.create
                       (Server.config ~resume ~fsync:Journal.Always
                          ~signals:false ~job_delay_s ~socket ~journal_dir:dir
                          ()))
                with
                | () -> 0
                | exception _ -> 10
              in
              Unix._exit code
            | pid -> pid
          in
          let reap pid = ignore (Unix.waitpid [] pid) in
          match spawn ~resume:false ~job_delay_s:0.2 with
          | exception Failure msg when str_contains msg "fork" ->
            Ok (Fmt.str "skipped: fork unavailable (%s)" msg)
          | pid1 ->
            if not (Client.wait_ready ~socket ()) then begin
              (try Unix.kill pid1 Sys.sigkill with _ -> ());
              reap pid1;
              Error "the first daemon never answered a ping"
            end
            else begin
              (* fire the cases from a background thread so submissions
                 are mid-flight when the SIGKILL lands *)
              let submitter =
                Thread.create
                  (fun () ->
                    try
                      let cn = Client.connect ~socket in
                      List.iter
                        (fun case -> ignore (Client.submit cn ~case))
                        names;
                      Client.close cn
                    with _ -> ())
                  ()
              in
              Thread.delay 0.6;
              let u1 = count_units () in
              Unix.kill pid1 Sys.sigkill;
              reap pid1;
              Thread.join submitter;
              let pid2 = spawn ~resume:true ~job_delay_s:0. in
              if not (Client.wait_ready ~socket ()) then begin
                (try Unix.kill pid2 Sys.sigkill with _ -> ());
                reap pid2;
                Error "the resumed daemon never answered a ping"
              end
              else begin
                let cn = Client.connect ~socket in
                let submit_all check =
                  List.fold_left
                    (fun acc case ->
                      let* () = acc in
                      match Client.submit cn ~case with
                      | Error e ->
                        Error
                          (Fmt.str "%s after resume: %a" case
                             Client.pp_submit_error e)
                      | Ok v -> check case v)
                    (Ok ()) names
                in
                (* drain the daemon whatever happened, so the child is
                   reaped and the socket unlinked *)
                let finishing r =
                  ignore (Client.drain cn);
                  Client.close cn;
                  match (Unix.waitpid [] pid2, r) with
                  | (_, Unix.WEXITED 0), _ | _, Error _ -> r
                  | (_, st), Ok _ ->
                    let show = function
                      | Unix.WEXITED n -> Fmt.str "exited %d" n
                      | Unix.WSIGNALED s -> Fmt.str "killed by signal %d" s
                      | Unix.WSTOPPED s -> Fmt.str "stopped by signal %d" s
                    in
                    Error
                      (Fmt.str "resumed daemon did not drain cleanly (%s)"
                         (show st))
                in
                finishing
                  (let* () =
                     submit_all (fun case v ->
                         match List.assoc_opt case expects with
                         | Some expect when canon v.Client.v_frame = expect ->
                           Ok ()
                         | Some _ ->
                           Error
                             (Fmt.str
                                "%s: resumed verdict differs from baseline"
                                case)
                         | None -> Error (case ^ ": no baseline"))
                   in
                   let u2 = count_units () in
                   if u2 < u1 then
                     Error
                       (Fmt.str "durable units shrank across the kill: %d -> %d"
                          u1 u2)
                   else
                     let* () =
                       submit_all (fun case v ->
                           if not v.Client.v_memo then
                             Error (case ^ ": repeat submission re-explored")
                           else if v.Client.v_fresh_units <> 0 then
                             Error
                               (Fmt.str "%s: repeat submission added %d units"
                                  case v.Client.v_fresh_units)
                           else Ok ())
                     in
                     Ok
                       (Fmt.str
                          "daemon SIGKILLed mid-run (%d units durable), \
                           resumed verdicts identical to baseline, repeat \
                           pass fully memoized (%d units total)"
                          u1 u2))
              end
            end);
    ]

(* --- syscall-level journal fault injection --------------------------- *)

(* An [io] whose write path raises [err] once [budget] bytes have gone
   through; everything before flows through the real syscalls. *)
let faulty_write_io ~budget ~err =
  let written = ref 0 in
  {
    Journal.io_write =
      (fun fd s pos len ->
        if !written + len > budget then
          raise (Unix.Unix_error (err, "write", "chaos"))
        else begin
          let k = Journal.real_io.Journal.io_write fd s pos len in
          written := !written + k;
          k
        end);
    io_fsync = Journal.real_io.Journal.io_fsync;
    io_rename = Journal.real_io.Journal.io_rename;
  }

(* An [io] whose fsync starts raising EIO after [allow] successes. *)
let faulty_fsync_io ~allow =
  let n = ref 0 in
  {
    Journal.io_write = Journal.real_io.Journal.io_write;
    io_fsync =
      (fun fd ->
        incr n;
        if !n > allow then raise (Unix.Unix_error (Unix.EIO, "fsync", "chaos"))
        else Journal.real_io.Journal.io_fsync fd);
    io_rename = Journal.real_io.Journal.io_rename;
  }

(* An [io] that writes at most [cap] bytes per call — not a fault at
   all, just a kernel the journal's write loop must tolerate. *)
let short_write_io ~cap =
  {
    Journal.io_write =
      (fun fd s pos len ->
        Journal.real_io.Journal.io_write fd s pos (min cap len));
    io_fsync = Journal.real_io.Journal.io_fsync;
    io_rename = Journal.real_io.Journal.io_rename;
  }

let rename_fault_io =
  {
    Journal.io_write = Journal.real_io.Journal.io_write;
    io_fsync = Journal.real_io.Journal.io_fsync;
    io_rename = (fun _ _ -> raise (Unix.Unix_error (Unix.EIO, "rename", "chaos")));
  }

(* A synthetic spec verdict, distinguishable per index so a recovered
   record that was flipped or cross-wired cannot match its original. *)
let enospc_report i =
  {
    Journal.ri_spec = Printf.sprintf "chaos/io-%03d" i;
    ri_params = Printf.sprintf "digest-%03d" i;
    ri_tier = "exhaustive";
    ri_seed = None;
    ri_initial_states = 1;
    ri_outcomes = i + 1;
    ri_diverged = 0;
    ri_complete = true;
    ri_states = (i + 1) * 10;
    ri_failures = [];
    ri_worker_crashes = [];
    ri_budget = None;
  }

(* Append verdicts through [io] until the journal is wounded (or [n]
   records are in), then demand the whole contract: a structured
   [Io_fault] crash, no exception out of any later append, in-memory
   lookups still answering for everything this process appended, and a
   real-io reopen recovering a verbatim prefix — lost records read as
   [None] (re-verify), never as a flipped or phantom verdict. *)
let journal_fault_scenario ~name ~io ~wound_expected ?(after = fun _ -> Ok ())
    ?(n = 50) () =
  outcome Journal_enospc name (fun () ->
      let _, dir = svc_paths "enospc" in
      let j = Journal.openj ~io ~fsync:Journal.Always ~resume:false dir in
      let written = ref [] in
      (let i = ref 0 in
       while !i < n && Journal.io_failure j = None do
         let r = enospc_report !i in
         Journal.append j (Journal.Spec_done r);
         written := r :: !written;
         incr i
       done);
      let written = List.rev !written in
      let* () = after j in
      let fault = Journal.io_failure j in
      let* () =
        match (fault, wound_expected) with
        | Some cr, true when Crash.kind cr = Crash.Io_fault -> Ok ()
        | Some cr, true ->
          Error
            (Fmt.str "wounded with kind %S, wanted io-fault"
               (Crash.kind_name (Crash.kind cr)))
        | None, true -> Error "the injected fault never wounded the journal"
        | None, false -> Ok ()
        | Some cr, false ->
          Error (Fmt.str "unexpected wound: %s" (Crash.message cr))
      in
      (* post-wound appends are disk no-ops, never exceptions, and the
         in-memory index keeps answering for this process *)
      let extra = enospc_report 999 in
      Journal.append j (Journal.Spec_done extra);
      let lookup (r : Journal.report_image) =
        Journal.find_spec_done j ~spec:r.Journal.ri_spec ~params:r.Journal.ri_params
      in
      let* () =
        match lookup extra with
        | Some r when r = extra -> Ok ()
        | _ -> Error "in-memory lookup lost a post-fault append"
      in
      let* () =
        List.fold_left
          (fun acc (r : Journal.report_image) ->
            let* () = acc in
            match lookup r with
            | Some r' when r' = r -> Ok ()
            | Some _ ->
              Error (r.Journal.ri_spec ^ ": in-memory verdict flipped")
            | None -> Error (r.Journal.ri_spec ^ ": in-memory verdict lost"))
          (Ok ()) written
      in
      (* an unwounded journal persisted the probe append too *)
      let written = if fault = None then written @ [ extra ] else written in
      Journal.close j;
      (* recovery through the real syscalls: a verbatim prefix *)
      let j2 = Journal.openj ~resume:true dir in
      let recovered =
        List.filter_map
          (function Journal.Spec_done r -> Some r | _ -> None)
          (Journal.recovered j2)
      in
      Journal.close j2;
      let rec prefix = function
        | [], _ -> Ok ()
        | r :: _, [] ->
          Error (r.Journal.ri_spec ^ ": recovered a record never persisted")
        | (r : Journal.report_image) :: rs, w :: ws ->
          if r = w then prefix (rs, ws)
          else Error (r.Journal.ri_spec ^ ": recovered record differs — flipped")
      in
      let* () = prefix (recovered, written) in
      if wound_expected && List.length recovered > List.length written then
        Error "recovered more than was written"
      else if (not wound_expected) && List.length recovered <> List.length written
      then
        Error
          (Fmt.str "lost %d of %d records without any injected fault"
             (List.length written - List.length recovered)
             (List.length written))
      else
        Ok
          (Fmt.str "%d/%d records recovered verbatim%s"
             (List.length recovered) (List.length written)
             (match fault with
             | Some cr -> "; wounded: " ^ Crash.message cr
             | None -> "")))

let run_journal_enospc ?cases () =
  let scenarios =
    [
      ( "enospc-mid-append",
        fun () ->
          journal_fault_scenario ~name:"enospc-mid-append"
            ~io:(faulty_write_io ~budget:2048 ~err:Unix.ENOSPC)
            ~wound_expected:true () );
      ( "eio-write",
        fun () ->
          journal_fault_scenario ~name:"eio-write"
            ~io:(faulty_write_io ~budget:1024 ~err:Unix.EIO)
            ~wound_expected:true () );
      ( "fsync-eio",
        fun () ->
          journal_fault_scenario ~name:"fsync-eio"
            ~io:(faulty_fsync_io ~allow:6) ~wound_expected:true () );
      ( "short-writes",
        fun () ->
          journal_fault_scenario ~name:"short-writes"
            ~io:(short_write_io ~cap:7) ~wound_expected:false ~n:12 () );
      ( "rename-compaction",
        fun () ->
          journal_fault_scenario ~name:"rename-compaction" ~io:rename_fault_io
            ~wound_expected:true ~n:12
            ~after:(fun j ->
              (* writes succeed; only folding the WAL into the snapshot
                 hits the rename fault, which must wound — not corrupt *)
              Journal.compact j;
              if Journal.io_failure j = None then
                Error "compaction's rename fault never wounded the journal"
              else Ok ())
            () );
    ]
  in
  let scenarios =
    (* [cases] names registry rows everywhere else; it selects fault
       scenarios here, and is ignored when it names none of them *)
    match cases with
    | Some names
      when List.exists (fun (n, _) -> List.mem n names) scenarios ->
      List.filter (fun (n, _) -> List.mem n names) scenarios
    | _ -> scenarios
  in
  List.map (fun (_, f) -> f ()) scenarios

(* --- client-side partition and retry --------------------------------- *)

(* A tiny Unix-socket proxy: its first connection is forwarded only up
   to the daemon's ack frame, then held until [wait_complete] says the
   job's verdict is journaled, then severed mid-stream; every later
   connection is a transparent pass-through.  The client sees a
   partition in exactly the window where the server finished the work
   but the verdict frame was lost — the idempotent-retry story. *)
let partition_proxy ~front ~back ~wait_complete =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX front);
  Unix.listen srv 8;
  let pump src dst =
    let buf = Bytes.create 4096 in
    let rec go () =
      match Unix.read src buf 0 (Bytes.length buf) with
      | 0 -> ()
      | k ->
        let rec put off =
          if off < k then put (off + Unix.write dst buf off (k - off))
        in
        put 0;
        go ()
      | exception Unix.Unix_error _ -> ()
    in
    (try go () with _ -> ());
    try Unix.shutdown dst Unix.SHUTDOWN_SEND with _ -> ()
  in
  (* byte-at-a-time up to the first newline, so the verdict can never
     ride the same read as the ack *)
  let pump_first_line_then_cut src dst =
    let b = Bytes.create 1 in
    let rec go () =
      match Unix.read src b 0 1 with
      | 0 -> ()
      | _ ->
        ignore (Unix.write dst b 0 1);
        if Bytes.get b 0 <> '\n' then go ()
    in
    (try go () with _ -> ());
    wait_complete ();
    (try Unix.close src with _ -> ());
    try Unix.close dst with _ -> ()
  in
  let nconn = ref 0 in
  let stopping = ref false in
  let accept_loop () =
    let rec go () =
      match Unix.accept srv with
      | exception _ -> ()
      | cfd, _ ->
        if !stopping then ( try Unix.close cfd with _ -> ())
        else begin
          incr nconn;
          let first = !nconn = 1 in
          (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
          | exception _ -> ( try Unix.close cfd with _ -> ())
          | bfd -> (
            match Unix.connect bfd (Unix.ADDR_UNIX back) with
            | exception _ ->
              (try Unix.close cfd with _ -> ());
              (try Unix.close bfd with _ -> ())
            | () ->
              ignore (Thread.create (fun () -> pump cfd bfd) ());
              if first then
                ignore
                  (Thread.create
                     (fun () -> pump_first_line_then_cut bfd cfd)
                     ())
              else ignore (Thread.create (fun () -> pump bfd cfd) ())));
          go ()
        end
    in
    go ()
  in
  let th = Thread.create accept_loop () in
  let stop () =
    stopping := true;
    (* a blocked [accept] is not woken by closing its fd from another
       thread — poke it with a throwaway connection instead *)
    (try
       let w = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect w (Unix.ADDR_UNIX front) with _ -> ());
       try Unix.close w with _ -> ()
     with _ -> ());
    Thread.join th;
    (try Unix.close srv with _ -> ());
    try Unix.unlink front with _ -> ()
  in
  stop

(* The retrying client against a partition: the first attempt loses its
   verdict frame mid-stream after the server already journaled it; the
   retry must reconnect, resubmit idempotently (same params digest) and
   be served from the journal memo — same canonical verdict, one
   exploration total. *)
let run_client_retry_partition ?cases () =
  List.map
    (fun c ->
      let name = c.Registry.c_name in
      outcome Client_retry_partition name (fun () ->
          let expect = baseline_canon c in
          with_server ~tag:"part" ~job_delay_s:0.2 (fun ~socket ~dir ->
              let front = socket ^ ".part" in
              let spec = "job/" ^ Protocol.digest ~case:name ~qos:Protocol.Gold in
              let wait_complete () =
                (* sever only after the verdict is durably journaled as
                   a memoizable record, so the retry window is exactly
                   "server finished, client never heard" *)
                let deadline = Unix.gettimeofday () +. 20. in
                let rec poll () =
                  let records, _ = Journal.read dir in
                  let done_ =
                    List.exists
                      (function
                        | Journal.Spec_done ri ->
                          ri.Journal.ri_spec = spec
                          && ri.Journal.ri_tier = "service"
                        | _ -> false)
                      records
                  in
                  if done_ || Unix.gettimeofday () > deadline then ()
                  else begin
                    Thread.delay 0.05;
                    poll ()
                  end
                in
                poll ()
              in
              let stop = partition_proxy ~front ~back:socket ~wait_complete in
              Fun.protect ~finally:stop (fun () ->
                  match
                    Client.submit_retry ~retries:3 ~retry_budget_s:60.
                      ~attempt_timeout_s:30. ~backoff_base_s:0.05
                      ~socket:front ~case:name ()
                  with
                  | Error e ->
                    Error
                      (Fmt.str "retrying submit failed: %a"
                         Client.pp_submit_error e)
                  | Ok rv ->
                    let v = rv.Client.rv_verdict in
                    if rv.Client.rv_attempts < 2 then
                      Error
                        "the partition never forced a retry (one attempt \
                         sufficed)"
                    else if not v.Client.v_memo then
                      Error
                        "the retry re-explored: resubmission was not \
                         idempotent on the params digest"
                    else if canon v.Client.v_frame <> expect then
                      Error "retried verdict differs from the baseline"
                    else if rv.Client.rv_backoff_s <= 0. then
                      Error "no backoff was recorded between attempts"
                    else
                      Ok
                        (Fmt.str
                           "verdict frame cut mid-stream; attempt %d served \
                            from the memo after %.2fs of backoff, verdict \
                            identical to baseline"
                           rv.Client.rv_attempts rv.Client.rv_backoff_s)))))
    (service_cases ?cases ~default:[ "CAS-lock" ] ())

(* --- overload flood --------------------------------------------------- *)

(* Saturate a small-queue daemon and demand graceful degradation with
   every promise kept: bronze shed with a structured reason, gold
   admitted but demoted (verdict marked [degraded]), a memo hit
   answered at once and never shed, shed decisions journaled, and — the
   phantom-verdict guard — a post-flood gold resubmission re-exploring
   at full QoS to exactly the baseline verdict instead of reusing the
   demoted one. *)
let run_service_overload_flood ?cases () =
  List.map
    (fun c ->
      let name = c.Registry.c_name in
      outcome Service_overload_flood name (fun () ->
          let others =
            [
              Registry.find "CG increment";
              Registry.find "Ticketed lock";
              Registry.find "Pair snapshot";
              Registry.find "CG allocator";
            ]
            |> List.concat_map Option.to_list
            |> List.filter (fun o -> o.Registry.c_name <> name)
          in
          match others with
          | demote :: f1 :: f2 :: _ ->
            let fillers = [ f1; f2 ] in
            let demote_name = demote.Registry.c_name in
            let expect_demote = baseline_canon demote in
            with_server ~tag:"flood" ~job_delay_s:0.4 ~queue_bound:8
              ~overload_high:1 ~overload_low:0 (fun ~socket ~dir ->
                (* put the case's gold verdict in the memo before any
                   pressure *)
                let c0 = Client.connect ~socket in
                let* _ =
                  Result.map_error
                    (fun e -> Fmt.str "priming submit: %a" Client.pp_submit_error e)
                    (Client.submit ~timeout_s:60. c0 ~case:name)
                in
                Client.close c0;
                (* flood: distinct bronze jobs pile onto the 1-job
                   executor (each holds it 0.4s+), pushing the cold
                   queue past the high watermark *)
                let filler_conns =
                  List.map
                    (fun f ->
                      let cn = Client.connect ~socket in
                      Client.send cn
                        (Protocol.Submit
                           { case = f.Registry.c_name; qos = Protocol.Bronze });
                      ignore (Client.read_frame ~timeout_s:10. cn);
                      cn)
                    fillers
                in
                let cleanup () = List.iter Client.abandon filler_conns in
                (* a filler resubmitted under pressure: bronze has no
                   lower rung, so it must shed with a structured reason *)
                let shed_probe = Client.connect ~socket in
                let shed_res =
                  Client.submit ~qos:Protocol.Bronze ~timeout_s:10. shed_probe
                    ~case:name
                in
                Client.close shed_probe;
                let* shed_reason =
                  match shed_res with
                  | Error (Client.Shed reason) -> Ok reason
                  | Ok _ ->
                    cleanup ();
                    Error "bronze was admitted under overload, not shed"
                  | Error e ->
                    cleanup ();
                    Error
                      (Fmt.str "bronze under overload: wanted a shed, got %a"
                         Client.pp_submit_error e)
                in
                (* the memo answers even under pressure: a hit never
                   waits for the executor, so the overload state the
                   fillers set still holds for the gold probe below *)
                let memo_conn = Client.connect ~socket in
                let memo_res =
                  Client.submit ~timeout_s:60. memo_conn ~case:name
                in
                Client.close memo_conn;
                let* () =
                  match memo_res with
                  | Ok v when v.Client.v_memo -> Ok ()
                  | Ok _ ->
                    cleanup ();
                    Error "memo-known submission re-explored under overload"
                  | Error e ->
                    cleanup ();
                    Error
                      (Fmt.str "memo hit was shed under overload: %a"
                         Client.pp_submit_error e)
                in
                (* gold during overload: admitted, demoted one rung,
                   verdict explicitly marked degraded *)
                let gold_conn = Client.connect ~socket in
                let gold_res =
                  Client.submit ~timeout_s:120. gold_conn ~case:demote_name
                in
                Client.close gold_conn;
                let* () =
                  match gold_res with
                  | Error e ->
                    cleanup ();
                    Error
                      (Fmt.str "gold under overload failed: %a"
                         Client.pp_submit_error e)
                  | Ok v -> (
                    match
                      Option.bind
                        (Json.member "degraded" v.Client.v_frame)
                        Json.to_bool
                    with
                    | Some true -> Ok ()
                    | _ ->
                      cleanup ();
                      Error
                        "gold verdict under overload was not marked degraded")
                in
                (* let the flood drain, then the phantom-verdict guard:
                   a fresh gold submission must re-explore at full QoS —
                   the demoted verdict is never served from the memo *)
                let fresh_conn = Client.connect ~socket in
                let fresh_res =
                  Client.submit ~timeout_s:120. fresh_conn ~case:demote_name
                in
                let* () =
                  match fresh_res with
                  | Error e ->
                    cleanup ();
                    Client.close fresh_conn;
                    Error
                      (Fmt.str "post-flood gold resubmit failed: %a"
                         Client.pp_submit_error e)
                  | Ok v ->
                    if v.Client.v_memo then begin
                      cleanup ();
                      Client.close fresh_conn;
                      Error
                        "a demoted verdict was served from the memo — a \
                         phantom full-QoS verdict"
                    end
                    else if canon v.Client.v_frame <> expect_demote then begin
                      cleanup ();
                      Client.close fresh_conn;
                      Error
                        "post-flood full-QoS verdict differs from the \
                         baseline"
                    end
                    else Ok ()
                in
                (* shed decisions are journaled and surfaced in health *)
                let health = Client.health fresh_conn in
                Client.close fresh_conn;
                cleanup ();
                let* shed_total =
                  match health with
                  | Error e ->
                    Error (Fmt.str "health probe: %a" Client.pp_submit_error e)
                  | Ok frame -> (
                    match
                      Option.bind (Json.member "shed_total" frame) Json.to_int
                    with
                    | Some n when n >= 1 -> Ok n
                    | Some n ->
                      Error (Fmt.str "health shed_total = %d after a shed" n)
                    | None -> Error "health frame lacks shed_total")
                in
                let records, _ = Journal.read dir in
                let journaled_sheds =
                  List.exists
                    (function
                      | Journal.Spec_done ri ->
                        ri.Journal.ri_tier = "service-shed"
                      | _ -> false)
                    records
                in
                if not journaled_sheds then
                  Error "no shed decision was journaled"
                else
                  Ok
                    (Fmt.str
                       "bronze shed (%s), memo hit served, gold \
                        demoted with degraded=true, post-flood resubmit \
                        re-explored to baseline, %d sheds journaled"
                       shed_reason shed_total))
          | _ -> Error "not enough registry cases to build a flood"))
    (service_cases ?cases ~default:[ "CAS-lock" ] ())

(* --- supervised daemon, SIGKILLed repeatedly -------------------------- *)

let read_pidfile path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let pid = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    close_in ic;
    if pid > 0 then Some pid else None

(* kill -9 the daemon under a supervisor, twice, and demand the full
   self-healing story: the supervisor restarts a resumed child within
   the backoff budget, verdicts stay baseline-identical across both
   deaths, and a SIGTERM to the supervisor drains the child gracefully
   and propagates its clean exit.  Forks real processes, so — like
   [Service_kill9] — it reports skipped wherever a domain was already
   spawned (the test binary). *)
let run_service_supervisor_kill ?cases () =
  let cs = service_cases ?cases ~default:[ "CAS-lock"; "Pair snapshot" ] () in
  match cs with
  | [] -> []
  | _ ->
    let names = List.map (fun c -> c.Registry.c_name) cs in
    [
      outcome Service_supervisor_kill (String.concat ", " names) (fun () ->
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let expects =
            List.map (fun c -> (c.Registry.c_name, baseline_canon c)) cs
          in
          let socket, dir = svc_paths "supkill" in
          Journal.close (Journal.openj ~resume:false dir);
          let pidfile = Filename.concat dir "daemon.pid" in
          let fork_supervisor () =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
              (* the supervisor process: its spawn forks daemon
                 children; every restart resumes from the journal *)
              let spawn ~restart =
                flush stdout;
                flush stderr;
                match Unix.fork () with
                | 0 ->
                  let code =
                    match
                      Server.run
                        (Server.create
                           (Server.config ~resume:restart
                              ~fsync:Journal.Always ~job_delay_s:0.3 ~socket
                              ~journal_dir:dir ()))
                    with
                    | () -> 0
                    | exception _ -> 10
                  in
                  Unix._exit code
                | pid -> pid
              in
              Unix._exit
                (Fcsl_service.Supervisor.run
                   (Fcsl_service.Supervisor.config ~restart_limit:5
                      ~window_s:60. ~backoff_base_s:0.05 ~pidfile ())
                   ~spawn)
            | pid -> pid
          in
          match fork_supervisor () with
          | exception Failure msg when str_contains msg "fork" ->
            Ok (Fmt.str "skipped: fork unavailable (%s)" msg)
          | sup ->
            let cleanup_on_error () =
              (try Unix.kill sup Sys.sigkill with _ -> ());
              try ignore (Unix.waitpid [] sup) with _ -> ()
            in
            let fail msg =
              cleanup_on_error ();
              Error msg
            in
            let await_pid ?(not_this = 0) () =
              let deadline = Unix.gettimeofday () +. 20. in
              let rec go () =
                match read_pidfile pidfile with
                | Some p when p <> not_this -> Some p
                | _ ->
                  if Unix.gettimeofday () > deadline then None
                  else begin
                    Thread.delay 0.05;
                    go ()
                  end
              in
              go ()
            in
            if not (Client.wait_ready ~socket ()) then
              fail "the supervised daemon never answered a ping"
            else begin
              match await_pid () with
              | None -> fail "the supervisor never wrote a pidfile"
              | Some pid1 ->
                (* work in flight when the first SIGKILL lands *)
                let submitter =
                  Thread.create
                    (fun () ->
                      try
                        let cn = Client.connect ~socket in
                        List.iter
                          (fun case -> ignore (Client.submit cn ~case))
                          names;
                        Client.close cn
                      with _ -> ())
                    ()
                in
                Thread.delay 0.6;
                (try Unix.kill pid1 Sys.sigkill with _ -> ());
                let restarted kill_n old =
                  match await_pid ~not_this:old () with
                  | None ->
                    Error
                      (Fmt.str
                         "no restart within budget after SIGKILL #%d" kill_n)
                  | Some p ->
                    if Client.wait_ready ~timeout_s:20. ~socket () then Ok p
                    else
                      Error
                        (Fmt.str
                           "restarted child after SIGKILL #%d never became \
                            ready"
                           kill_n)
                in
                let result =
                  let* pid2 = restarted 1 pid1 in
                  Thread.delay 0.2;
                  (try Unix.kill pid2 Sys.sigkill with _ -> ());
                  let* pid3 = restarted 2 pid2 in
                  ignore pid3;
                  Thread.join submitter;
                  (* verdicts across two deaths: baseline-identical *)
                  let cn = Client.connect ~socket in
                  let verdicts =
                    List.fold_left
                      (fun acc case ->
                        let* () = acc in
                        match Client.submit ~timeout_s:120. cn ~case with
                        | Error e ->
                          Error
                            (Fmt.str "%s after two SIGKILLs: %a" case
                               Client.pp_submit_error e)
                        | Ok v -> (
                          match List.assoc_opt case expects with
                          | Some expect when canon v.Client.v_frame = expect ->
                            Ok ()
                          | Some _ ->
                            Error
                              (Fmt.str
                                 "%s: verdict differs from baseline after \
                                  the restarts"
                                 case)
                          | None -> Error (case ^ ": no baseline")))
                      (Ok ()) names
                  in
                  let* () = verdicts in
                  let* () =
                    match Client.health cn with
                    | Error e ->
                      Error
                        (Fmt.str "health probe after restarts: %a"
                           Client.pp_submit_error e)
                    | Ok frame -> (
                      match
                        Option.bind (Json.member "uptime_s" frame)
                          Json.to_float
                      with
                      | Some u when u >= 0. -> Ok ()
                      | _ -> Error "health frame lacks a numeric uptime_s")
                  in
                  Client.close cn;
                  (* graceful end: SIGTERM to the supervisor forwards to
                     the child, which drains; the clean exit propagates *)
                  (try Unix.kill sup Sys.sigterm with _ -> ());
                  let rec reap () =
                    match Unix.waitpid [] sup with
                    | _, st -> st
                    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
                  in
                  match reap () with
                  | Unix.WEXITED 0 ->
                    Ok
                      (Fmt.str
                         "child SIGKILLed twice, restarted within budget \
                          each time; verdicts identical to baseline; \
                          SIGTERM drained gracefully (exit 0)")
                  | Unix.WEXITED n ->
                    Error (Fmt.str "supervisor exited %d after SIGTERM" n)
                  | Unix.WSIGNALED s ->
                    Error (Fmt.str "supervisor killed by signal %d" s)
                  | Unix.WSTOPPED s ->
                    Error (Fmt.str "supervisor stopped by signal %d" s)
                in
                (match result with
                | Ok _ -> ()
                | Error _ -> cleanup_on_error ());
                result
            end);
      outcome Service_supervisor_kill "crash-loop gives up" (fun () ->
          let _, dir = svc_paths "supgiveup" in
          (try Unix.mkdir dir 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let pidfile = Filename.concat dir "daemon.pid" in
          let fork_supervisor () =
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
              (* every child dies immediately: the sliding failure
                 window must fill and the supervisor must give up with
                 its stable exit code, not restart forever *)
              let spawn ~restart:_ =
                flush stdout;
                flush stderr;
                match Unix.fork () with
                | 0 -> Unix._exit 9
                | pid -> pid
              in
              Unix._exit
                (Fcsl_service.Supervisor.run
                   (Fcsl_service.Supervisor.config ~restart_limit:3
                      ~window_s:60. ~backoff_base_s:0.02 ~pidfile ())
                   ~spawn)
            | pid -> pid
          in
          match fork_supervisor () with
          | exception Failure msg when str_contains msg "fork" ->
            Ok (Fmt.str "skipped: fork unavailable (%s)" msg)
          | sup ->
            let deadline = Unix.gettimeofday () +. 20. in
            let rec reap () =
              match Unix.waitpid [ Unix.WNOHANG ] sup with
              | 0, _ ->
                if Unix.gettimeofday () > deadline then begin
                  (try Unix.kill sup Sys.sigkill with _ -> ());
                  (try ignore (Unix.waitpid [] sup) with _ -> ());
                  Error
                    "the supervisor kept restarting a crash-looping child \
                     past its budget"
                end
                else begin
                  Thread.delay 0.05;
                  reap ()
                end
              | _, Unix.WEXITED n
                when n = Fcsl_service.Supervisor.exit_gave_up ->
                Ok
                  (Fmt.str
                     "crash-looping child (exit 9 on every spawn): the \
                      supervisor gave up with stable exit code %d after 3 \
                      failures in the window"
                     n)
              | _, Unix.WEXITED n ->
                Error
                  (Fmt.str "supervisor exited %d, wanted exit_gave_up %d" n
                     Fcsl_service.Supervisor.exit_gave_up)
              | _, Unix.WSIGNALED s ->
                Error (Fmt.str "supervisor killed by signal %d" s)
              | _, Unix.WSTOPPED s ->
                Error (Fmt.str "supervisor stopped by signal %d" s)
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
            in
            reap ());
    ]

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
  | Service_client_kill -> run_service_client_kill ?cases ()
  | Service_torn_frames -> run_service_torn_frames ?cases ()
  | Service_kill9 -> run_service_kill9 ?cases ()
  | Service_supervisor_kill -> run_service_supervisor_kill ?cases ()
  | Service_overload_flood -> run_service_overload_flood ?cases ()
  | Journal_enospc -> run_journal_enospc ?cases ()
  | Client_retry_partition -> run_client_retry_partition ?cases ()

let run_all ?cases ?(seed = 1) () =
  List.concat_map (run ?cases ~seed) all_modes
