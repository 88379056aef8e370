(** The verifier: discharges Hoare triples against a world of
    concurroids by exhaustive exploration of schedules and environment
    interference from every supplied initial state — the semantic
    replacement for Coq type checking (see DESIGN.md).

    Resource resilience (see docs/ROBUSTNESS.md): under a
    {!Budget.limits} the verifier never hangs and never returns a silent
    partial answer.  On budget exhaustion it walks a degradation ladder
    — {!Exhaustive}, then seeded-randomized {!Sampled} — and the report
    records the tier that produced the verdict, the consumed budget, and
    (for sampled verdicts) the seed. *)

type tier =
  | Exhaustive  (** full exploration of every schedule *)
  | Pruned
      (** Never constructed.  It named a footprint-pruned rung that no
          longer exists; the benchmark harness still names it for its
          [verify.tier_pruned] counter (always 0), and the next
          benchmark change removes it. *)
  | Sampled  (** randomized sampling: can only refute, never prove *)

val tier_name : tier -> string
(** ["exhaustive"], ["sampled"] (and ["pruned"] for {!Pruned}). *)

val tier_of_name : string -> tier option
(** Inverse of {!tier_name} on the tiers a verdict can carry (journal
    records carry tier names); any other name, ["pruned"] included,
    decodes to [None]. *)

val pp_tier : Format.formatter -> tier -> unit

type failure = { initial : State.t; crash : Crash.t }

type expl_stats = {
  x_memo_hits : int;  (** memoized-configuration cache hits *)
  x_memo_misses : int;  (** cache misses (configurations actually expanded) *)
  x_sleep_skips : int;
      (** Always 0.  It counted the subtrees a sleep-set partial-order
          reduction skipped, and that reduction no longer exists; the
          benchmark harness still names it for its [sched.sleep_skips]
          metric, and the next benchmark change removes it. *)
  x_max_bucket : int;
      (** most distinct configuration keys observed in one memo-table
          hash bucket — a collision-quality probe for the hash-consed
          keys *)
  x_minor_words : float;
      (** [Gc.minor_words] delta over the explorations — the allocation
          cost of the hot path *)
}
(** Always-on exploration counters, summed ({!Sched.explore_stats}
    [es_max_bucket]: maxed) over a verdict's initial states and,
    under a budget, over its ladder rungs.  [None] on {!Sampled}
    verdicts (single runs, not a search) and on reports replayed from a
    journal — the journal image format deliberately does not carry perf
    counters. *)

val merge_expl :
  expl_stats option -> expl_stats option -> expl_stats option
(** Pointwise sum ([x_max_bucket]: max); [None] is the unit. *)

type report = {
  spec_name : string;
  tier : tier;  (** the ladder tier that produced this verdict *)
  seed : int option;  (** base seed of a {!Sampled} verdict *)
  initial_states : int;  (** initial states satisfying the precondition *)
  outcomes : int;  (** terminal outcomes examined *)
  diverged : int;  (** fuel-cut paths (partial correctness: not failures) *)
  complete : bool;  (** exploration exhausted every path *)
  states : int;
      (** configurations explored (once per memoized configuration
          under dedup) — the cost the Table 1 [States] column surfaces.
          0 for {!Sampled} verdicts, which run single schedules rather
          than searching a space. *)
  failures : failure list;
  worker_crashes : failure list;
      (** initial states whose exploration worker was quarantined (an
          engine loss, not a spec verdict; see {!Pool.map_result}) *)
  budget : Budget.stats option;
      (** consumed budget, cumulative across ladder tiers, when a budget
          was armed *)
  expl : expl_stats option;
      (** exploration counters, cumulative across ladder tiers; [None]
          for {!Sampled} and journal-replayed verdicts *)
}

val ok : report -> bool
(** No failures and no quarantined workers. *)

val degraded : report -> bool
(** [ok], but a budget trip forced the verdict below a complete
    exploration — "no failures found" is not a proof.  Unbudgeted
    incomplete runs (a [max_outcomes] cap) are not degraded. *)

val cancelled : report -> bool
(** The budget tripped {!Budget.Cancelled}: the run was cut short from
    outside (every service client hung up), not by a resource ceiling.
    Cancelled verdicts are never journaled — memoizing them would serve
    the aborted answer to the next submission of the same digest. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Exit codes}

    The stable process exit codes the [fcsl] CLI maps verdicts to. *)

val exit_ok : int
(** 0: every report ok and conclusive. *)

val exit_failed : int
(** 1: a verification failure (sound under every tier). *)

val exit_degraded : int
(** 2: no failure found, but some verdict is {!degraded}. *)

val exit_internal : int
(** 3: an engine failure (quarantined workers, unexpected exceptions). *)

val exit_code : report list -> int
(** Failures dominate (counterexamples are sound even next to losses),
    then worker crashes (an "ok" with quarantined workers is
    untrustworthy), then degradation. *)

(** {1 The engine}

    Every setting a verification run reads besides the triple and its
    exploration bounds is held in one immutable engine value.
    {!check_triple} and {!check_triple_random} read it once, at entry;
    {!with_engine} is the only way to change it. *)

val with_engine :
  ?dedup:bool ->
  ?jobs:int ->
  ?budget:Budget.limits ->
  ?seed:int ->
  ?journal:Journal.t option ->
  (unit -> 'a) ->
  'a
(** [with_engine ... f] runs [f] under the current engine with the
    given settings replaced, then restores the previous engine (also on
    exceptions).  The new engine is installed whole, so a triple never
    observes a half-applied override.  Omitted settings keep their
    current values; outside any [with_engine] they are the defaults
    below.

    [dedup] (default on) switches configuration memoization in the
    scheduler (see [Sched.explore]); [jobs] (default 1, clamped to at
    least 1) fans a triple's initial states out over that many
    supervised domains (an exploration that raises is retried once,
    then quarantined into [worker_crashes]).  Neither changes a report:
    memoized replay is exact, and the parallel merge reproduces the
    sequential accounting (including skipping states after the first
    failing one).

    [budget] (default {!Budget.no_limits}) arms cooperative resource
    ceilings per triple — wall-clock deadline, major-heap words,
    explored states.  An unlimited budget takes exactly the historical
    code path.  A budget trip with failures already found reports those
    (sound) counterexamples; a failure-free trip drops to
    seeded-randomized sampling with base seed [seed] (default 1).  The
    sampled rung re-arms fresh state/heap ceilings under the exhaustive
    rung's absolute deadline, so the whole ladder observes one
    wall-clock budget and always terminates with an explicit
    [tier]/[budget] verdict — never a hang, never a silent partial
    answer.

    [journal] (default [None]) arms durability: a run's progress is
    written to the given write-ahead journal at verification-unit
    granularity (one eligible initial state under one ladder tier), the
    spec's verdict is journaled on completion, and a resumed run — same
    triple, same engine parameters, a journal opened with
    [~resume:true] — replays journaled units instead of re-exploring
    them, re-enters the ladder at the last journaled rung, and replays a
    journaled verdict wholesale.  Exploration is deterministic, so a
    resumed run reaches the verdict the uninterrupted run would have
    reached; units cut short by a budget trip are timing-dependent and
    are deliberately not journaled (a resume with a fresh budget
    legitimately explores further).  {!check_triple} and
    {!check_triple_random} share one journaled code path and differ only
    in their rungs and in the [mode] their parameter digest starts
    with ([exh] or [rand]).  A unit's journaled record is its whole
    result apart from exploration counters, and a verdict's budget is
    journaled as the {!Budget.stats} it carries.  See {!Journal} and
    docs/ROBUSTNESS.md. *)

val check_triple :
  ?fuel:int ->
  ?max_outcomes:int ->
  ?interference:bool ->
  ?env_budget:int ->
  ?max_failures:int ->
  world:World.t ->
  init:State.t list ->
  'a Prog.t ->
  'a Spec.t ->
  report
(** Explore every schedule (and, unless [interference] is [false],
    every environment-step insertion at every world label up to
    [env_budget]) from every coherent initial state satisfying the
    precondition; check the postcondition in every terminal state and
    safety of every enabled action along the way.  Runs under the
    current engine (see {!with_engine}): its memoization, domain count,
    budget ladder and journal. *)

val check_triple_random :
  ?fuel:int ->
  ?trials:int ->
  ?interference:bool ->
  ?max_failures:int ->
  world:World.t ->
  init:State.t list ->
  'a Prog.t ->
  'a Spec.t ->
  report
(** Randomized checking for configurations too large to exhaust:
    [trials] random schedules per initial state with consecutive seeds
    from the engine's [seed] (see {!with_engine}), so a report's
    recorded seed replays bit-identically.  An engine [budget] trip
    stops further trials promptly; the engine's [journal], when armed,
    records the run as a one-rung ladder (a [Spec_begin], one sampled
    [Tier_begin], a [State_done] per initial state whose trials all
    ran, and the verdict), replays a journaled verdict wholesale and
    replays journaled units on resume.  The report's tier is always
    {!Sampled}. *)
