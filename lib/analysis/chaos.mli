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
    hang or an escaped exception. *)

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
  | Service_client_kill
      (** a daemon client killed mid-stream: the orphaned job must be
          cancelled through the budget's cancel probe, settled in the
          job ledger as cancelled (never as a memoizable verdict), and
          a fresh resubmission must re-explore to exactly the baseline
          verdict *)
  | Service_torn_frames
      (** torn and malformed wire frames fed to the daemon: every
          garbage line must be answered with a structured
          [Crash.Protocol_error] frame — never a hang, a dropped
          connection or a daemon crash — and the same connection must
          keep serving well-formed traffic with unchanged verdicts *)
  | Service_kill9
      (** kill -9 of the daemon itself mid-run, then a resumed restart:
          canonical wire verdicts must equal the baseline, durable
          units must stay monotone across the death, and a repeat
          submission pass must be served entirely from the journal memo
          (zero fresh units).  Forks a real daemon process, so — like
          [Kill9_midrun] — it reports skipped wherever a domain was
          already spawned (the test binary) *)
  | Service_supervisor_kill
      (** kill -9 the daemon under [Supervisor.run], twice: the
          supervisor must restart a resumed child within its backoff
          budget each time, verdicts must stay baseline-identical
          across both deaths, and a SIGTERM to the supervisor must
          drain the child gracefully and propagate the clean exit.
          A second scenario spawns a crash-looping child (dead on
          arrival, every time) and asserts the supervisor gives up
          with its stable exit code once the sliding failure window
          fills, instead of restarting forever.  Forks real
          processes, so it reports skipped wherever a domain was
          already spawned (the test binary) *)
  | Service_overload_flood
      (** saturate a small-queue daemon past its high watermark:
          bronze submissions must shed with a structured reason,
          gold must be admitted but demoted one QoS rung (verdict
          marked [degraded]), a memo hit must be answered from the
          verdict table at once and never shed,
          shed decisions must be journaled and surfaced in health,
          and a post-flood gold resubmission must re-explore at full
          QoS to the baseline verdict — a demoted verdict is never a
          memo hit (no phantom full-QoS verdicts) *)
  | Journal_enospc
      (** syscall-level faults injected through {!Journal.io} —
          ENOSPC and EIO mid-append, fsync failures, short writes,
          a rename failure during compaction: every fault must leave
          the journal wounded with a structured [Crash.Io_fault]
          (short writes wound nothing), later appends must be disk
          no-ops that never raise, in-memory lookups must keep
          answering, and a real-io reopen must recover a verbatim
          prefix — lost records re-verify, none ever flips *)
  | Client_retry_partition
      (** a proxy severs the client's connection mid-stream exactly
          after the server journaled the verdict but before the
          client heard it: [Client.submit_retry] must reconnect with
          backoff and be served from the journal memo — idempotent
          resubmission on the params digest, verdict identical to
          the baseline, one exploration total *)

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
    name); action-level modes run their bespoke scenarios; service
    modes default to a small case subset (each outcome stands up a
    whole daemon) unless [cases] overrides it.  [seed] (default 1)
    seeds every randomized component.  Never raises: an exception
    escaping the engine is itself a failed outcome. *)

val run_all : ?cases:string list -> ?seed:int -> unit -> outcome list
(** {!run} every mode of {!all_modes}, in order. *)
