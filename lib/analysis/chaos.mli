(** Fault-injection harness for the verification engine (the [fcsl
    chaos] command; see docs/ROBUSTNESS.md).

    Each {!mode} injects one class of fault — worker exceptions
    (transient and persistent), exceptions deep inside exploration,
    budget starvation, spurious CAS failures, transiently-unsafe
    actions, environment-interference bursts — and asserts that
    verdicts and accounting survive it: verdicts identical to the
    fault-free baseline where soundness demands it (transient faults
    are absorbed by the supervised pool's retry), explicit structured
    degradation where it does not (persistent faults quarantine,
    starvation reports a {!Verify.tier} below exhaustive), and never a
    hang or an escaped exception.

    The daemon's faults ([fcsl serve]: killed clients, torn frames,
    overload, journal I/O faults, partitions, daemon and supervisor
    kills) are staged by the service test suite and the CI drills
    instead; docs/ROBUSTNESS.md §6 names each one's home. *)

type mode =
  | Pool_transient
      (** one [Crash.Injected] raised inside the first exploration of
          each case: the pool's retry must absorb it — verdicts equal
          the baseline *)
  | Pool_persistent
      (** every tick raises: both attempts of every worker die — each
          report must carry quarantined [worker_crashes] and the run
          must exit with code 3, not an exception *)
  | Mid_explore
      (** one exception raised deep inside exploration (after 50
          ticks): retry absorbs it — verdicts equal the baseline *)
  | Budget_starve
      (** a tiny state/deadline budget: every report must terminate
          with either a sound verdict or explicit degradation (a
          recorded tier, budget stats, and a seed when sampled) *)
  | Spurious_cas
      (** the lock-acquisition CAS of a spin-lock increment fails
          spuriously: the retry loop must still verify under sampling *)
  | Transient_unsafe
      (** an action transiently reports unsafe: the engine must record
          structured [Unsafe_action] failures, never crash *)
  | Env_burst
      (** randomized runs with environment-interference bursts: the
          interference-robust snapshot spec must still verify *)
  | Kill9_midrun
      (** crash-recovery across process death: fork a verification child
          journaling to a write-ahead journal, SIGKILL it at a
          randomized exploration tick, resume, repeat — the journal's
          durable-unit count must grow monotonically across the kills
          and the eventually-completed run's verdicts must equal the
          uninterrupted baseline's (see {!Journal}) *)

val all_modes : mode list

val mode_name : mode -> string
(** Stable kebab-case name, e.g. ["pool-transient"]. *)

val mode_of_name : string -> mode option
val pp_mode : Format.formatter -> mode -> unit

type outcome = {
  o_mode : mode;
  o_case : string;  (** registry row or bespoke scenario name *)
  o_passed : bool;
  o_detail : string;  (** what was asserted, or how it failed *)
}

val pp_outcome : Format.formatter -> outcome -> unit

val run : ?cases:string list -> ?seed:int -> mode -> outcome list
(** Run one injection mode.  Registry-wide modes ([Pool_transient],
    [Pool_persistent], [Mid_explore], [Budget_starve]) run over every
    Table 1 registry row (restricted to [cases] when given, by row
    name), and so does [Kill9_midrun]; action-level modes run their
    bespoke scenarios.  [seed] (default 1) seeds every randomized
    component.  Never raises: an exception escaping the engine is
    itself a failed outcome. *)

val run_all : ?cases:string list -> ?seed:int -> unit -> outcome list
(** {!run} every mode of {!all_modes}, in order. *)
