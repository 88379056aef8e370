(** The verifier: discharges Hoare triples against a world of
    concurroids by exhaustive exploration of schedules and environment
    interference from every supplied initial state — the semantic
    replacement for Coq type checking (see DESIGN.md).

    Resource resilience (see docs/ROBUSTNESS.md): under a
    {!Budget.limits} the verifier never hangs and never returns a silent
    partial answer.  On budget exhaustion it walks a degradation ladder
    — {!Exhaustive}, then footprint-{!Pruned}, then seeded-randomized
    {!Sampled} — and the report records the tier that produced the
    verdict, the consumed budget, and (for sampled verdicts) the seed. *)

type tier =
  | Exhaustive  (** full exploration of every schedule *)
  | Pruned  (** footprint-pruned exploration (still a proof if complete) *)
  | Sampled  (** randomized sampling: can only refute, never prove *)

val tier_name : tier -> string
(** ["exhaustive"], ["pruned"], ["sampled"]. *)

val tier_of_name : string -> tier option
(** Inverse of {!tier_name} (journal records carry tier names). *)

val pp_tier : Format.formatter -> tier -> unit

type failure = { initial : State.t; crash : Crash.t }

type expl_stats = {
  x_memo_hits : int;  (** memoized-configuration cache hits *)
  x_memo_misses : int;  (** cache misses (configurations actually expanded) *)
  x_sleep_skips : int;  (** subtrees skipped by sleep-set POR *)
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

val pp_expl_stats : Format.formatter -> expl_stats -> unit
(** One-line rendering, e.g.
    ["memo 120 hits / 80 misses, 14 sleep skips, bucket depth 3, 52k minor words"]. *)

type report = {
  spec_name : string;
  tier : tier;  (** the ladder tier that produced this verdict *)
  seed : int option;  (** base seed of a {!Sampled} verdict *)
  initial_states : int;  (** initial states satisfying the precondition *)
  outcomes : int;  (** terminal outcomes examined *)
  diverged : int;  (** fuel-cut paths (partial correctness: not failures) *)
  complete : bool;  (** exploration exhausted every path *)
  states : int;
      (** configurations explored under the active reductions (dedup,
          pruning, POR) — the cost the Table 1 [States] column and the
          POR benchmark surface.  0 for {!Sampled} verdicts, which run
          single schedules rather than searching a space. *)
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

(** {1 Engine defaults}

    Process-wide defaults for the exploration engine, used when
    {!check_triple} is not passed the corresponding argument: whether
    the scheduler memoizes configurations ([dedup], default on), how
    many domains initial states fan out over ([jobs], default 1),
    footprint-based env pruning ([prune], default off), the resource
    budget ([budget], default {!Budget.no_limits}), and the sampling
    base seed ([seed], default 1). *)

val set_default_dedup : bool -> unit
val set_default_jobs : int -> unit

val set_default_prune : bool -> unit
(** Footprint-based env-step pruning (default off): when a triple's
    joined program+spec envelope is known (below [Footprint.top]),
    restrict environment interference to the labels it touches, and arm
    the scheduler's envelope monitor so an unsound declared envelope
    surfaces as an explicit failure. *)

val set_default_budget : Budget.limits -> unit
val set_default_seed : int -> unit

val set_default_por : bool -> unit
(** Sleep-set partial-order reduction (default off): skip exploration
    subtrees that are reorderings, by independent moves, of subtrees
    already explored (see [Sched.explore ~por] and docs/ANALYSIS.md
    §POR).  Verdict-preserving by construction; self-checking at
    runtime, demoting to full exploration on a refuted independence
    claim. *)

val set_default_por_certs : (string -> string -> bool) -> unit
(** Extra independence certificates for the POR oracle, keyed by action
    name pair (queried once per interned class pair, in both orders, so
    tables may be ordered or symmetrically closed): the static
    analyzer's algebraic (PCM-commutation) rule, beyond what footprint
    disjointness shows.  Default: none.  Only consulted when POR is
    on. *)

val set_default_journal : Journal.t option -> unit
(** The write-ahead journal verification progress is recorded to (and
    replayed from), when any — see {!Journal} and docs/ROBUSTNESS.md.
    Default: none. *)

val with_engine :
  ?dedup:bool ->
  ?jobs:int ->
  ?prune:bool ->
  ?budget:Budget.limits ->
  ?seed:int ->
  ?journal:Journal.t option ->
  ?por:bool ->
  ?por_certs:(string -> string -> bool) ->
  (unit -> 'a) ->
  'a
(** Run [f] with the given engine defaults, restoring the previous ones
    afterwards (also on exceptions). *)

val check_triple :
  ?fuel:int ->
  ?max_outcomes:int ->
  ?interference:bool ->
  ?env_budget:int ->
  ?max_failures:int ->
  ?dedup:bool ->
  ?jobs:int ->
  ?prune:bool ->
  ?por:bool ->
  ?por_certs:(string -> string -> bool) ->
  ?budget:Budget.limits ->
  ?seed:int ->
  ?journal:Journal.t ->
  world:World.t ->
  init:State.t list ->
  'a Prog.t ->
  'a Spec.t ->
  report
(** Explore every schedule (and, unless [interference] is [false],
    every environment-step insertion up to [env_budget]) from every
    coherent initial state satisfying the precondition; check the
    postcondition in every terminal state and safety of every enabled
    action along the way.

    [dedup] switches configuration memoization in the scheduler
    (see [Sched.explore]); [jobs > 1] fans the initial states out over
    that many supervised domains (an exploration that raises is retried
    once, then quarantined into [worker_crashes]).  Both default to the
    engine defaults above, and neither changes the report: memoized
    replay is exact, and the parallel merge reproduces the sequential
    accounting (including skipping states after the first failing one).

    [prune] (default: the engine default, off) restricts environment
    interference to the labels of the joined program+spec footprint when
    that footprint is known — sound because interference at a label the
    program never steps and the spec never observes cannot change any
    verdict, and guarded dynamically by the scheduler's envelope
    monitor.  Outcome {e counts} may legitimately shrink under pruning;
    the per-spec verdict and failure set do not.

    [por] (default: the engine default, off) arms sleep-set
    partial-order reduction on the exhaustive and pruned rungs, with
    [por_certs] as extra algebraic independence certificates (see
    {!set_default_por_certs}).  Every reachable configuration — hence
    every verdict, failure and counterexample — stays reachable; only
    [states] (and, on diamond-heavy programs, wall-clock) drops.  A
    refuted independence claim demotes that state's exploration to full
    expansion, logs the located analyzer-lie diagnostic, and never
    changes the verdict.  POR participates in the engine-parameter
    digest, so journaled verdicts never replay across a POR on/off
    change (the [states] count would be wrong).

    [budget] (default: the engine default, unlimited) arms cooperative
    resource ceilings — wall-clock deadline, major-heap words, explored
    states.  An unlimited budget takes exactly the historical code path.
    A budget trip with failures already found reports those (sound)
    counterexamples; a failure-free trip drops a tier: exhaustive to
    footprint-pruned (when the footprint is known and pruning was not
    already on) to seeded-randomized sampling with base seed [seed].
    Every tier re-arms fresh state/heap ceilings under the first tier's
    absolute deadline, so the whole ladder observes one wall-clock
    budget and always terminates with an explicit [tier]/[budget]
    verdict — never a hang, never a silent partial answer.

    [journal] (default: the engine default, none) arms durability: the
    run's progress is written to the given write-ahead journal at
    verification-unit granularity (one eligible initial state under one
    ladder tier), the spec's verdict is journaled on completion, and a
    resumed run — same triple, same engine parameters, a journal opened
    with [~resume:true] — replays journaled units instead of
    re-exploring them, re-enters the ladder at the last journaled rung,
    and replays a journaled verdict wholesale.  Exploration is
    deterministic, so a resumed run reaches the verdict the
    uninterrupted run would have reached; units cut short by a budget
    trip are timing-dependent and are deliberately not journaled (a
    resume with a fresh budget legitimately explores further). *)

val check_triple_random :
  ?fuel:int ->
  ?trials:int ->
  ?interference:bool ->
  ?max_failures:int ->
  ?budget:Budget.limits ->
  ?seed:int ->
  ?journal:Journal.t ->
  world:World.t ->
  init:State.t list ->
  'a Prog.t ->
  'a Spec.t ->
  report
(** Randomized checking for configurations too large to exhaust:
    [trials] random schedules per initial state with consecutive seeds
    from [seed] (default: the engine default, 1), so a report's recorded
    seed replays bit-identically.  A [budget] (default: the engine
    default) trip stops further trials promptly; the report's tier is
    always {!Sampled}. *)
