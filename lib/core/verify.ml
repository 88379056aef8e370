(* The verifier: discharges a Hoare triple {pre} prog {post} against a
   world of concurroids by exhaustive exploration of schedules and
   environment interference from every supplied initial state.

   This is the semantic replacement for Coq type checking (see
   DESIGN.md): the same obligations FCSL discharges by dependent types —
   safety of every atomic action, the postcondition in every terminal
   state, under every admissible interference — are established by
   enumeration over finite configurations.

   Resource resilience (see docs/ROBUSTNESS.md): when a {!Budget.limits}
   is supplied, exhaustion never hangs and never returns a silent
   partial answer.  Instead the verifier walks a degradation ladder —
   exhaustive, then seeded-randomized sampling — re-arming the state/heap
   ceilings for the second rung under one shared absolute deadline, and
   records which tier produced the verdict, the consumed budget, and (for
   sampled verdicts) the seed. *)

(* [Pruned] is never constructed: the footprint-pruned rung it named is
   gone.  The benchmark harness still names it for its (always zero)
   [verify.tier_pruned] counter, so it stays until the next benchmark
   change removes both. *)
type tier = Exhaustive | Pruned | Sampled

let tier_name = function
  | Exhaustive -> "exhaustive"
  | Pruned -> "pruned"
  | Sampled -> "sampled"

let tier_of_name = function
  | "exhaustive" -> Some Exhaustive
  | "sampled" -> Some Sampled
  | _ -> None

let pp_tier ppf t = Fmt.string ppf (tier_name t)

type failure = {
  initial : State.t;
  crash : Crash.t;
}

(* Exploration counters aggregated across a verdict's initial states —
   {!Sched.explore_stats} summed (bucket depth: maxed) over the fanned-
   out explorations.  Always collected on the exhaustive-shaped rungs;
   [None] for sampled verdicts and for reports replayed from a journal
   (the journal image formats predate the counters and deliberately do
   not carry them — a replayed verdict is the same verdict, and its
   original run's perf profile is not reproducible data).
   [x_sleep_skips] is always 0, kept like [Pruned] above: the benchmark
   harness still reads it, and the next benchmark change removes it. *)
type expl_stats = {
  x_memo_hits : int;
  x_memo_misses : int;
  x_sleep_skips : int;
  x_max_bucket : int;
  x_minor_words : float;
}

let expl_of_sched (s : Sched.explore_stats) : expl_stats =
  {
    x_memo_hits = s.Sched.es_memo_hits;
    x_memo_misses = s.Sched.es_memo_misses;
    x_sleep_skips = 0;
    x_max_bucket = s.Sched.es_max_bucket;
    x_minor_words = s.Sched.es_minor_words;
  }

let merge_expl a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
    Some
      {
        x_memo_hits = a.x_memo_hits + b.x_memo_hits;
        x_memo_misses = a.x_memo_misses + b.x_memo_misses;
        x_sleep_skips = 0;
        x_max_bucket = max a.x_max_bucket b.x_max_bucket;
        x_minor_words = a.x_minor_words +. b.x_minor_words;
      }

type report = {
  spec_name : string;
  tier : tier; (* the ladder tier that produced this verdict *)
  seed : int option; (* base seed of a Sampled verdict *)
  initial_states : int; (* initial states satisfying the precondition *)
  outcomes : int; (* terminal outcomes examined *)
  diverged : int; (* paths cut by fuel (partial correctness: not failures) *)
  complete : bool; (* exploration exhausted every path *)
  states : int; (* configurations explored under the active reductions
                   (0 for sampled verdicts: runs, not a search space) *)
  failures : failure list;
  worker_crashes : failure list; (* quarantined pool items (engine, not spec) *)
  budget : Budget.stats option; (* consumed budget, when one was armed *)
  expl : expl_stats option; (* exploration counters; None when sampled/replayed *)
}

let ok r = r.failures = [] && r.worker_crashes = []

(* Degraded-inconclusive: no counterexample was found, but a budget trip
   forced the verdict below a complete exploration, so "no failures" is
   not a proof.  Unbudgeted incomplete runs (a [max_outcomes] cap) keep
   their historical exit-0 behaviour: nothing was demanded, nothing was
   degraded. *)
let degraded r =
  ok r
  &&
  match r.budget with
  | Some s -> s.Budget.st_tripped <> None
  | None -> false

(* A verdict cut short because every waiter went away (the service's
   client-disconnect path), as opposed to one that ran out of a
   resource.  Cancelled verdicts are an artifact of who was listening,
   not a property of the triple. *)
let cancelled r =
  match r.budget with
  | Some s -> s.Budget.st_tripped = Some (Budget.reason_name Budget.Cancelled)
  | None -> false

(* Stable CLI exit codes.  Counterexamples dominate: a failure found
   under any tier (or alongside worker losses) is sound.  Worker crashes
   dominate degradation: an "ok" claim with quarantined workers is
   untrustworthy. *)
let exit_ok = 0
let exit_failed = 1
let exit_degraded = 2
let exit_internal = 3

let exit_code reports =
  if List.exists (fun r -> r.failures <> []) reports then exit_failed
  else if List.exists (fun r -> r.worker_crashes <> []) reports then
    exit_internal
  else if List.exists degraded reports then exit_degraded
  else exit_ok

(* The engine: every setting a verification run reads besides the
   triple and its exploration bounds — configuration memoization in the
   scheduler (see [Sched.explore ~dedup]), the number of domains initial
   states fan out over, the resource budget, the sampling base seed and
   the journal.
   One immutable record in one reference: [with_engine] installs a
   whole new record and restores the old one, so a triple reads a
   consistent engine once, never a half-applied override. *)
type engine = {
  e_dedup : bool;
  e_jobs : int;
  e_budget : Budget.limits;
  e_seed : int;
  e_journal : Journal.t option;
}

let engine =
  ref
    {
      e_dedup = true;
      e_jobs = 1;
      e_budget = Budget.no_limits;
      e_seed = 1;
      e_journal = None;
    }

let with_engine ?dedup ?jobs ?budget ?seed ?journal f =
  let saved = !engine in
  engine :=
    {
      e_dedup = Option.value dedup ~default:saved.e_dedup;
      e_jobs = max 1 (Option.value jobs ~default:saved.e_jobs);
      e_budget = Option.value budget ~default:saved.e_budget;
      e_seed = Option.value seed ~default:saved.e_seed;
      e_journal = Option.value journal ~default:saved.e_journal;
    };
  Fun.protect ~finally:(fun () -> engine := saved) f

let pp_failure ppf f =
  Fmt.pf ppf "@[<v2>from %a:@ %a@]" State.pp f.initial Crash.pp f.crash

let pp_report ppf r =
  let tier_note =
    match r.tier with
    | Exhaustive -> ""
    | t -> Fmt.str ", tier %s" (tier_name t)
  in
  let seed_note =
    match r.seed with Some s -> Fmt.str ", seed %d" s | None -> ""
  in
  let budget_note =
    match r.budget with
    | Some s -> (
      match s.Budget.st_tripped with
      | Some reason -> Fmt.str ", budget tripped: %s" reason
      | None -> "")
    | None -> ""
  in
  if r.worker_crashes <> [] then
    Fmt.pf ppf "@[<v2>%s: ENGINE CRASH (%d worker%s quarantined%s)@ %a@]"
      r.spec_name
      (List.length r.worker_crashes)
      (if List.length r.worker_crashes = 1 then "" else "s")
      budget_note
      Fmt.(list ~sep:cut pp_failure)
      (List.filteri (fun i _ -> i < 3) r.worker_crashes)
  else if r.failures <> [] then
    Fmt.pf ppf "@[<v2>%s: FAILED (%d failures%s%s)@ %a@]" r.spec_name
      (List.length r.failures) tier_note seed_note
      Fmt.(list ~sep:cut pp_failure)
      (List.filteri (fun i _ -> i < 3) r.failures)
  else if degraded r then
    Fmt.pf ppf "%s: INCONCLUSIVE (%d initial states, %d outcomes%s%s%s%s)"
      r.spec_name r.initial_states r.outcomes
      (if r.states > 0 then Fmt.str ", %d states" r.states else "")
      tier_note seed_note budget_note
  else
    Fmt.pf ppf "%s: OK (%d initial states, %d outcomes%s%s%s%s%s)" r.spec_name
      r.initial_states r.outcomes
      (if r.states > 0 then Fmt.str ", %d states" r.states else "")
      (if r.diverged > 0 then Fmt.str ", %d fuel-cut" r.diverged else "")
      (if r.complete then "" else ", exploration capped")
      tier_note seed_note

let crash_of_pool_error (e : Pool.error) =
  let c = Crash.of_exn e.Pool.e_exn in
  Crash.make (Crash.kind c)
    (Fmt.str "worker quarantined after %d attempt%s%s: %s" e.Pool.e_attempts
       (if e.Pool.e_attempts = 1 then "" else "s")
       (if e.Pool.e_backoff_s > 0. then
          Fmt.str " (%.0fms backoff)" (e.Pool.e_backoff_s *. 1000.)
        else "")
       (Crash.message c))

(* --- Journal integration ---------------------------------------------

   Durability granularity is the verification unit: one eligible initial
   state under one ladder tier (a [State_done] record, keyed by its
   index in the eligible list) plus the whole spec verdict (a
   [Spec_done] record).  Resume replays journaled units and re-explores
   the rest; exploration is deterministic, so the merged report is the
   uninterrupted run's.

   A journaled unit is only replayable under the engine parameters it
   was computed with, captured as a digest string.  [dedup] and [jobs]
   are deliberately excluded: both are report-invariant by construction
   (exact memo replay; sequential merge).  The eligible-state count is
   included so failure indices always re-anchor within bounds. *)

type jctx = { jc_j : Journal.t; jc_spec : string; jc_tier : string }

let params_digest ~mode ~fuel ~max_outcomes ~trials ~interference ~env_budget
    ~max_failures ~seed ~(lim : Budget.limits) ~eligible =
  (* A structural digest of the eligible initial states: two triples
     can share a spec name (e.g. the same rooted-spanning spec checked
     over several catalogue graphs), and only the initial states tell
     them apart.  [State.hash] is semantic — no addresses — so it is
     stable across processes of the same binary; a recompile may shift
     it, which merely invalidates replay (the safe direction). *)
  let init_digest =
    List.fold_left (fun acc st -> (acc * 33) lxor State.hash st) 5381 eligible
  in
  Fmt.str
    "mode=%s,fuel=%d,outs=%d,trials=%d,intf=%b,envb=%d,maxf=%d,seed=%d,dl=%a,words=%a,states=%a,init=%d,inith=%x"
    mode fuel max_outcomes trials interference env_budget max_failures seed
    Fmt.(option ~none:(any "-") float)
    lim.Budget.l_deadline_s
    Fmt.(option ~none:(any "-") int)
    lim.Budget.l_max_major_words
    Fmt.(option ~none:(any "-") int)
    lim.Budget.l_max_states
    (List.length eligible) init_digest

(* Failures are serialized with the index of their initial state in the
   eligible list (the states themselves are closures over heaps and not
   serializable); resume re-anchors them by index.  The digest pins the
   eligible count, so indices stay within bounds — an out-of-range index
   (a hand-edited journal) makes the image non-replayable, never a
   panic. *)
let failure_indices ~(eligible : State.t list) (fs : failure list) =
  List.map
    (fun f ->
      let ix = ref (-1) in
      List.iteri (fun i st -> if !ix < 0 && st == f.initial then ix := i) eligible;
      (!ix, f.crash))
    fs

let image_of_report ~params ~eligible (r : report) : Journal.report_image =
  {
    Journal.ri_spec = r.spec_name;
    ri_params = params;
    ri_tier = tier_name r.tier;
    ri_seed = r.seed;
    ri_initial_states = r.initial_states;
    ri_outcomes = r.outcomes;
    ri_diverged = r.diverged;
    ri_complete = r.complete;
    ri_states = r.states;
    ri_failures = failure_indices ~eligible r.failures;
    ri_worker_crashes = failure_indices ~eligible r.worker_crashes;
    ri_budget = r.budget;
  }

let report_of_image ~(eligible : State.t list) (ri : Journal.report_image) :
    report option =
  let anchor (i, crash) =
    if i < 0 then None
    else Option.map (fun initial -> { initial; crash }) (List.nth_opt eligible i)
  in
  let anchored l =
    let xs = List.filter_map anchor l in
    if List.length xs = List.length l then Some xs else None
  in
  match (tier_of_name ri.Journal.ri_tier, anchored ri.Journal.ri_failures,
         anchored ri.Journal.ri_worker_crashes)
  with
  | Some tier, Some failures, Some worker_crashes ->
    Some
      {
        spec_name = ri.Journal.ri_spec;
        tier;
        seed = ri.Journal.ri_seed;
        initial_states = ri.Journal.ri_initial_states;
        outcomes = ri.Journal.ri_outcomes;
        diverged = ri.Journal.ri_diverged;
        complete = ri.Journal.ri_complete;
        states = ri.Journal.ri_states;
        failures;
        worker_crashes;
        budget = ri.Journal.ri_budget;
        expl = None;
      }
  | _ -> None

(* One verification unit: replay it from the journal, or compute it and
   journal the result.  A unit's result is the {!Journal.state_image} it
   journals — its failures are bare crashes, which the caller re-anchors
   to the unit's initial state — plus its exploration counters, which
   are never journaled (a replayed unit has none).  [keep] decides
   whether a computed result is durable: a unit cut short by a budget
   trip is timing-dependent (a resumed process with a fresh budget would
   legitimately explore further), so only results the budget didn't
   interfere with are journaled.  Runs on pool worker domains; the
   journal handle is domain-safe. *)
let unit_cached (jctx : jctx option) ~index
    ~(keep : Journal.state_image -> bool)
    (compute : unit -> Journal.state_image * expl_stats option) =
  match jctx with
  | None -> compute ()
  | Some { jc_j; jc_spec; jc_tier } -> (
    match
      Journal.find_state_done jc_j ~spec:jc_spec ~tier:jc_tier ~index
    with
    | Some si -> (si, None)
    | None ->
      let ((si, _) as u) = compute () in
      if keep si then
        Journal.append jc_j
          (Journal.State_done
             { spec = jc_spec; tier = jc_tier; index; state = si });
      u)

let jwriter_of =
  Option.map (fun { jc_j; jc_spec; jc_tier } ->
      Journal.writer jc_j ~spec:jc_spec ~tier:jc_tier ())

(* One exhaustive attempt explores every schedule of [prog] (with
   environment interference at all world labels unless [interference]
   is [false]) from every eligible initial state, under an optional
   armed budget.

   Initial states are independent explorations, so with [jobs > 1] they
   are fanned out over a supervised domain pool and the per-state
   results merged in input order.  The merge reproduces the sequential
   accounting exactly: states after the first one that produced failures
   are not counted (the sequential loop skips them once [failures] is
   non-empty), so the report is identical whatever [jobs] is — parallel
   runs merely waste the work done past the first failing state.

   Supervision is per initial state: an exploration that raises is
   retried once (absorbing transient faults — exploration is pure) and
   then quarantined into [worker_crashes] instead of destroying its
   siblings' verdicts.

   The report's [budget] is [None]: the ladder sets it. *)
let exhaustive_attempt ~fuel ~max_outcomes ~interference ~env_budget
    ~max_failures ~dedup ~jobs ~(budget : Budget.t option)
    ~(jctx : jctx option) ~(world : World.t) ~(eligible : State.t list)
    (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  let interfere = if interference then World.labels world else [] in
  let jwriter = jwriter_of jctx in
  let explore_state st () =
    let genv, mine = Sched.genv_of_state ~interfere world st in
    (* One stats record per initial state: explorations fan out over
       pool domains, and each run mutates its own. *)
    let stats = Sched.new_stats () in
    let outs, compl =
      Sched.explore ~fuel ~max_outcomes ~interference ~env_budget ~dedup
        ?budget ?journal:jwriter ~stats genv mine prog
    in
    let outcomes = ref 0 in
    let diverged = ref 0 in
    let failures = ref [] in
    let add_failure crash =
      if List.length !failures < max_failures then
        failures := crash :: !failures
    in
    List.iter
      (fun out ->
        incr outcomes;
        match out with
        | Sched.Finished (r, final) ->
          if not (Spec.post spec r st final) then
            add_failure
              (Crash.make Crash.Postcondition
                 (Fmt.str "postcondition violated in final state %a" State.pp
                    final))
        | Sched.Crashed c -> add_failure c
        | Sched.Diverged -> incr diverged)
      outs;
    ( {
        Journal.si_outcomes = !outcomes;
        si_diverged = !diverged;
        si_complete = compl;
        si_states = stats.Sched.es_configs;
        si_failures = List.rev !failures;
      },
      Some (expl_of_sched stats) )
  in
  (* Unbudgeted results are deterministic whatever the outcome (even a
     [max_outcomes] cut replays identically); under a budget, anything
     computed while (or after) the budget tripped is not durable. *)
  let keep _ =
    match budget with None -> true | Some b -> Budget.tripped b = None
  in
  let check_state (index, st) =
    unit_cached jctx ~index ~keep (explore_state st)
  in
  let indexed = List.mapi (fun i st -> (i, st)) eligible in
  let results = Pool.map_result ~jobs ~retries:1 check_state indexed in
  let initial_states = ref 0 in
  let outcomes = ref 0 in
  let diverged = ref 0 in
  let complete = ref true in
  let states = ref 0 in
  let failures = ref [] in
  let worker_crashes = ref [] in
  let expl = ref None in
  List.iter2
    (fun (_, st) r ->
      if !failures = [] && !worker_crashes = [] then
        match r with
        | Ok ((si : Journal.state_image), x) ->
          incr initial_states;
          outcomes := !outcomes + si.si_outcomes;
          diverged := !diverged + si.si_diverged;
          if not si.si_complete then complete := false;
          states := !states + si.si_states;
          expl := merge_expl !expl x;
          failures :=
            List.map (fun crash -> { initial = st; crash }) si.si_failures
        | Error e ->
          (* The state's verdict is lost: record the quarantine and mark
             the run incomplete — like a failure, later states are not
             merged (the sequential accounting). *)
          complete := false;
          worker_crashes := [ { initial = st; crash = crash_of_pool_error e } ])
    indexed results;
  {
    spec_name = Spec.name spec;
    tier = Exhaustive;
    seed = None;
    initial_states = !initial_states;
    outcomes = !outcomes;
    diverged = !diverged;
    complete = !complete;
    states = !states;
    failures = !failures;
    worker_crashes = !worker_crashes;
    budget = None;
    expl = !expl;
  }

(* One sampled attempt: [trials] random schedules per eligible state,
   with consecutive seeds from [seed].  Never complete by construction;
   a budget trip stops further trials (and states) promptly.  The
   report's [budget] is [None]: the caller sets it. *)
let sampled_attempt ~fuel ~trials ~interference ~max_failures ~seed
    ~(budget : Budget.t option) ~(jctx : jctx option) ~(world : World.t)
    ~(eligible : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  let interfere = if interference then World.labels world else [] in
  let initial_states = ref 0 in
  let outcomes = ref 0 in
  let diverged = ref 0 in
  let failures = ref [] in
  let tripped () =
    match budget with
    | None -> false
    | Some b -> Budget.tripped b <> None
  in
  let jwriter = jwriter_of jctx in
  (* One durable unit per eligible state: all [trials] seeded runs.
     Seeds are consecutive from [seed] per state, so a replayed unit is
     exactly what re-running it would produce; a unit cut short by a
     budget trip is timing-dependent and is not journaled. *)
  let sample_state st () =
    let genv, mine = Sched.genv_of_state ~interfere world st in
    let outs = ref 0 and div = ref 0 and fs = ref [] in
    let add crash =
      if List.length !fs < max_failures then fs := crash :: !fs
    in
    let s = ref seed in
    while !s < seed + trials && not (tripped ()) do
      incr outs;
      (match
         Sched.run_random ~fuel ~interference ?budget ?journal:jwriter ~seed:!s
           genv mine prog
       with
      | Sched.Finished (r, final) ->
        if not (Spec.post spec r st final) then
          add
            (Crash.make Crash.Postcondition
               (Fmt.str "postcondition violated (seed %d) in %a" !s State.pp
                  final))
      | Sched.Crashed c -> add c
      | Sched.Diverged -> incr div);
      incr s
    done;
    (* [si_complete] here means "all trials ran" — the unit is durable —
       not exploration completeness (sampled reports are never
       complete). *)
    ( {
        Journal.si_outcomes = !outs;
        si_diverged = !div;
        si_complete = !s >= seed + trials;
        si_states = 0;
        si_failures = List.rev !fs;
      },
      None )
  in
  let keep (si : Journal.state_image) = si.si_complete in
  List.iteri
    (fun index st ->
      if not (tripped ()) then begin
        incr initial_states;
        let si, _ = unit_cached jctx ~index ~keep (sample_state st) in
        outcomes := !outcomes + si.Journal.si_outcomes;
        diverged := !diverged + si.Journal.si_diverged;
        List.iter
          (fun crash ->
            if List.length !failures < max_failures then
              failures := { initial = st; crash } :: !failures)
          si.Journal.si_failures
      end)
    eligible;
  {
    spec_name = Spec.name spec;
    tier = Sampled;
    seed = Some seed;
    initial_states = !initial_states;
    outcomes = !outcomes;
    diverged = !diverged;
    complete = false;
    states = 0;
    failures = List.rev !failures;
    worker_crashes = [];
    budget = None;
    expl = None;
  }

(* Fold two rungs' budget stats into one record for the report: elapsed
   and states accumulate; the trip reason is the later rung's, else the
   earlier one's, so a verdict that was ever forced down a tier keeps
   the reason even when the final attempt finished within its own
   ceilings (that is what makes it {!degraded}). *)
let merge_stats (a : Budget.stats) (b : Budget.stats) : Budget.stats =
  {
    Budget.st_elapsed_s = a.Budget.st_elapsed_s +. b.Budget.st_elapsed_s;
    st_states = a.Budget.st_states + b.Budget.st_states;
    st_major_words = b.Budget.st_major_words;
    st_tripped =
      (match b.Budget.st_tripped with
      | Some _ as t -> t
      | None -> a.Budget.st_tripped);
  }

(* The journaled run both entry points share.  It reads the engine
   once, filters the eligible initial states and digests the
   parameters.  A verdict journaled for this spec under exactly that
   digest replays wholesale — the memoization that makes resumed
   registry runs skip completed rows.  Otherwise it journals a
   [Spec_begin], runs [rungs] (which journal a [Tier_begin] per rung
   they enter, through [rung]) and journals the verdict. *)
let journaled ~mode ~fuel ~max_outcomes ~trials ~interference ~env_budget
    ~max_failures ~(world : World.t) ~(init : State.t list) (spec : 'a Spec.t)
    (rungs :
      engine ->
      eligible:State.t list ->
      rung:(tier -> int option -> jctx option) ->
      report) : report =
  let e = !engine in
  let spec_name = Spec.name spec in
  let eligible =
    List.filter (fun st -> World.coh world st && Spec.pre spec st) init
  in
  let params =
    params_digest ~mode ~fuel ~max_outcomes ~trials ~interference ~env_budget
      ~max_failures ~seed:e.e_seed ~lim:e.e_budget ~eligible
  in
  let replayed =
    Option.bind e.e_journal (fun j ->
        Option.bind
          (Journal.find_spec_done j ~spec:spec_name ~params)
          (report_of_image ~eligible))
  in
  match replayed with
  | Some r -> r
  | None ->
    Option.iter
      (fun j ->
        Journal.append j (Journal.Spec_begin { spec = spec_name; params }))
      e.e_journal;
    let rung tier seed =
      Option.map
        (fun j ->
          Journal.append j
            (Journal.Tier_begin
               { spec = spec_name; tier = tier_name tier; seed });
          { jc_j = j; jc_spec = spec_name; jc_tier = tier_name tier })
        e.e_journal
    in
    let r = rungs e ~eligible ~rung in
    Option.iter
      (fun j ->
        (* A cancelled verdict must not be memoized: replaying it for
           the next submission of the same digest would serve the
           aborted answer as if it were a real exploration.  The
           unit-level records are already excluded by the tripped-
           budget [keep] predicates; skip the verdict record too. *)
        if not (cancelled r) then
          Journal.append j
            (Journal.Spec_done (image_of_report ~params ~eligible r));
        Journal.flush j)
      e.e_journal;
    r

(* Trials used by the Sampled rung of the ladder (check_triple has no
   [trials] parameter of its own; [check_triple_random] does). *)
let ladder_trials = 100

let check_triple ?(fuel = 64) ?(max_outcomes = 200_000) ?(interference = true)
    ?(env_budget = max_int) ?(max_failures = 5) ~(world : World.t)
    ~(init : State.t list) (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  journaled ~mode:"exh" ~fuel ~max_outcomes ~trials:ladder_trials ~interference
    ~env_budget ~max_failures ~world ~init spec
  @@ fun e ~eligible ~rung ->
  let attempt b =
    exhaustive_attempt ~fuel ~max_outcomes ~interference ~env_budget
      ~max_failures ~dedup:e.e_dedup ~jobs:e.e_jobs ~budget:b
      ~jctx:(rung Exhaustive None) ~world ~eligible prog spec
  in
  let lim = e.e_budget in
  if Budget.is_unlimited lim then
    (* No budget: exactly the historical single-attempt path. *)
    attempt None
  else begin
    (* The degradation ladder.  The sampled rung re-arms fresh
       state/heap ceilings but shares the exhaustive rung's absolute
       deadline, so the whole ladder observes one wall-clock budget.
       Failures found on a tripped rung are sound counterexamples and
       are reported as-is; only a failure-free trip degrades.

       A resumed run whose journal already reached the sampled rung
       re-enters there: the exhaustive rung's failure-free trip is
       what pushed the interrupted run down.  The marker is read after
       [journaled]'s [Spec_begin] append: the journal index invalidates
       unit records on a params change, so a surviving tier marker is
       one recorded under exactly these parameters. *)
    let resume_tier =
      Option.bind e.e_journal (fun j ->
          Option.bind (Journal.last_tier j ~spec:(Spec.name spec))
            (fun (t, _) -> tier_of_name t))
    in
    let b1 = Budget.arm lim in
    let sampled b =
      let r =
        sampled_attempt ~fuel:(max fuel 256) ~trials:ladder_trials
          ~interference ~max_failures ~seed:e.e_seed ~budget:(Some b)
          ~jctx:(rung Sampled (Some e.e_seed)) ~world ~eligible prog spec
      in
      { r with budget = Some (Budget.stats b) }
    in
    (* A cancel trip aborts the ladder at the current rung:
       degradation is for resource exhaustion, and descending would
       journal a sampled marker that a later resubmission of the same
       digest would wrongly resume into (serving a sampled verdict
       where an exhaustive one was never even attempted). *)
    let conclusive r s =
      s.Budget.st_tripped = None
      || r.failures <> []
      || s.Budget.st_tripped = Some (Budget.reason_name Budget.Cancelled)
    in
    if resume_tier = Some Sampled then sampled b1
    else begin
      let r1 = attempt (Some b1) in
      let s1 = Budget.stats b1 in
      if conclusive r1 s1 then { r1 with budget = Some s1 }
      else
        let r2 =
          sampled (Budget.arm ?deadline_at:(Budget.deadline_at b1) lim)
        in
        (* Like the budget stats, exploration counters are cumulative
           across rungs: the work a failure-free tripped exhaustive rung
           burned is part of what this verdict cost. *)
        {
          r2 with
          budget = Option.map (merge_stats s1) r2.budget;
          expl = r1.expl;
        }
    end
  end

(* Randomized checking for configurations too large to exhaust: [trials]
   random schedules per initial state, with consecutive seeds from
   [seed] (so a report's recorded seed replays bit-identically).  One
   rung, journaled like the ladder's. *)
let check_triple_random ?(fuel = 2000) ?(trials = 100) ?(interference = false)
    ?(max_failures = 5) ~(world : World.t) ~(init : State.t list)
    (prog : 'a Prog.t) (spec : 'a Spec.t) : report =
  journaled ~mode:"rand" ~fuel ~max_outcomes:0 ~trials ~interference
    ~env_budget:0 ~max_failures ~world ~init spec
  @@ fun e ~eligible ~rung ->
  let lim = e.e_budget in
  let b = if Budget.is_unlimited lim then None else Some (Budget.arm lim) in
  let r =
    sampled_attempt ~fuel ~trials ~interference ~max_failures ~seed:e.e_seed
      ~budget:b ~jctx:(rung Sampled (Some e.e_seed)) ~world ~eligible prog spec
  in
  { r with budget = Option.map Budget.stats b }
