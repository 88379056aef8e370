(** Durable verification: an append-only, CRC-checksummed, length-
    prefixed binary write-ahead journal of exploration progress, so any
    verification run can be SIGKILLed at an arbitrary instant and
    resumed with no repeated work and no silent corruption (see
    docs/ROBUSTNESS.md, "Durability").

    A journal directory holds two files: [journal.fcslj], the WAL
    proper, and [snapshot.fcslj], an atomically-replaced compaction of
    the WAL's live records.  Records are framed as
    [u32-le length | u32-le CRC-32 | payload]; on open the files are
    scanned, checksums validated, and the WAL physically truncated at
    the first torn or corrupt record — corruption is degradation (the
    suffix is re-verified), never a wrong verdict.

    Durability granularity is the {e verification unit}: one initial
    state of one spec under one ladder tier ({!State_done}), plus the
    spec-level verdict ({!Spec_done}).  Configuration memo keys are
    process-local (thread-tree atoms are identified by closure
    identity), so they cannot name work across a process boundary;
    {!Frontier} records journal the explored-configuration counts for
    observability, and resume replays completed units and re-explores
    the (deterministic) remainder, reaching verdicts identical to an
    uninterrupted run's. *)

(** {1 Fsync policy} *)

type fsync_policy =
  | Always  (** fsync after every appended record (safest, slowest) *)
  | Interval of float
      (** group commit: buffered appends are written and fsynced at
          most every given number of seconds — a crash loses at most
          that window of progress, never corrupts the prefix *)
  | Never  (** rely on the OS page cache; a crash may lose everything
               since the last compaction, but recovery still truncates
               cleanly *)

val fsync_policy_name : fsync_policy -> string
(** ["always"], ["interval"], ["never"]. *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** Parses ["always"], ["never"], ["interval"] (0.05s default period)
    or ["interval:SECS"]. *)

(** {1 Records} *)

type state_image = {
  si_outcomes : int;
  si_diverged : int;
  si_complete : bool;
  si_states : int;  (** configurations explored under the active reductions *)
  si_failures : Crash.t list;  (** failures found from this state *)
}
(** What one verification unit (one initial state under one tier)
    concluded — [Verify]'s own record of a unit, journaled as is and
    replayed exactly; the failures are re-anchored to the unit's initial
    state by the merge. *)

type report_image = {
  ri_spec : string;
  ri_params : string;  (** engine-parameter digest; a resume with
                           different parameters must not reuse this *)
  ri_tier : string;
  ri_seed : int option;
  ri_initial_states : int;
  ri_outcomes : int;
  ri_diverged : int;
  ri_complete : bool;
  ri_states : int;
      (** configurations explored, summed over the verdict's units *)
  ri_failures : (int * Crash.t) list;
      (** (eligible-state index, crash) — indices re-anchor the crash
          to its initial state on resume *)
  ri_worker_crashes : (int * Crash.t) list;
  ri_budget : Budget.stats option;  (** consumed budget, when one was armed *)
}
(** A completed spec verdict, the unit [Verify.check_triple] and
    [Verify.check_triple_random] replay wholesale. *)

type record =
  | Meta of { version : int; created_s : float }
      (** one per process generation appending to the journal *)
  | Spec_begin of { spec : string; params : string }
  | Tier_begin of { spec : string; tier : string; seed : int option }
      (** a ladder rung started: resume re-enters the ladder here *)
  | Frontier of { spec : string; tier : string; states : int }
      (** explored-configuration snapshot, appended every N scheduler
          ticks; [states] is cumulative across the (spec, tier) attempt *)
  | Counterexample of { spec : string; crash : Crash.t }
      (** a found failure, journaled at discovery (before its unit
          completes) so evidence survives a kill *)
  | State_done of { spec : string; tier : string; index : int;
                    state : state_image }
  | Spec_done of report_image

val pp_record : Format.formatter -> record -> unit

(** {1 The journal handle} *)

type io = {
  io_write : Unix.file_descr -> string -> int -> int -> int;
      (** [write_substring]-shaped: may write fewer bytes than asked
          (the journal loops); must raise [Unix.Unix_error] on failure
          and never return [<= 0] for a non-empty buffer *)
  io_fsync : Unix.file_descr -> unit;
  io_rename : string -> string -> unit;
}
(** The journal's syscall boundary.  Every byte the journal persists
    flows through these three hooks, so a chaos harness can inject
    ENOSPC, EIO, short writes, fsync failures and rename failures at
    arbitrary offsets without a real filesystem knob
    (docs/SERVICE.md §6). *)

val real_io : io
(** The default hooks: [Unix.write_substring] / [Unix.fsync] /
    [Unix.rename]. *)

type t

val openj :
  ?fsync:fsync_policy ->
  ?compact_every:int ->
  ?resume:bool ->
  ?io:io ->
  string ->
  t
(** [openj dir] opens (creating the directory and files as needed) the
    journal rooted at [dir].  With [resume] (default [false]) existing
    records are recovered — scanned, checksummed, the WAL truncated at
    the first corrupt record — and become visible to the lookup
    functions below; without it any existing journal is discarded and
    the run starts fresh.  [fsync] defaults to [Interval 0.05];
    [compact_every] (default 2048) bounds how many records accumulate
    in the WAL before it is folded into the snapshot.  [io] (default
    {!real_io}) is the syscall boundary — see {!io}.  Domain-safe: one
    handle may be shared by every worker of a verification fan-out. *)

val dir : t -> string
val fsync : t -> fsync_policy

val recovered : t -> record list
(** The records recovered at open time (snapshot first, then WAL),
    before any record appended by this process. *)

val truncated_bytes : t -> int
(** Bytes of torn/corrupt WAL tail dropped by recovery at open. *)

val append : t -> record -> unit
(** Append one record (group-committed per the fsync policy) and fold
    it into the live lookup index. *)

val flush : t -> unit
(** Force buffered appends to disk (fsyncs unless the policy is
    [Never]). *)

val compact : t -> unit
(** Fold the WAL into [snapshot.fcslj] (write-tmp + rename, fsynced)
    and truncate the WAL, so journals don't grow unboundedly.  Live
    records — completed spec verdicts, the in-flight specs' unit
    results, tiers, counterexamples and last frontiers — survive;
    superseded frontiers and begin markers do not.  Also triggered
    automatically every [compact_every] appends. *)

val close : t -> unit
(** Flush and release the handle (never deletes the files). *)

val pending_bytes : t -> int
(** Bytes appended but not yet written to the WAL — the journal lag the
    service's health frame reports (0 right after a {!flush}). *)

val io_failure : t -> Crash.t option
(** The wounded-journal flag.  The first I/O fault to escape the {!io}
    hooks (ENOSPC, EIO, a zero-byte write, a failed fsync or rename)
    marks the journal failed with a structured {!Crash.Io_fault} and
    every later mutation becomes a disk no-op: in-memory lookups keep
    answering for this process, nothing further persists, and — because
    whatever half-record the fault tore is dropped by CRC recovery on
    the next open — a resume re-verifies instead of trusting a corrupt
    suffix.  Degradation to re-verification, never a flipped or phantom
    verdict. *)

(** {1 Resume lookups}

    All lookups see recovered records and records appended through this
    handle. *)

val find_spec_done : t -> spec:string -> params:string -> report_image option
(** The journaled verdict of [spec] under exactly [params], if any. *)

val find_state_done :
  t -> spec:string -> tier:string -> index:int -> state_image option

val last_tier : t -> spec:string -> (string * int option) option
(** The last journaled ladder rung of [spec], with its sampling seed
    when it recorded one. *)

val spec_params : t -> spec:string -> string option
(** The parameter digest [spec] was journaled under, if any. *)

val completed_units : t -> int
(** The number of durable verification units (state-level plus
    spec-level completions) currently recorded — the monotone progress
    measure the kill9 chaos mode asserts on. *)

val counterexamples : t -> spec:string -> Crash.t list

(** {1 Per-exploration writers}

    A cheap scoped handle the scheduler ticks once per explored
    configuration; every [every]-th tick appends a {!Frontier} record.
    Crash outcomes are journaled as {!Counterexample} records at
    discovery (deduplicated per spec, capped). *)

type writer

val writer : t -> spec:string -> tier:string -> ?every:int -> unit -> writer
(** [every] defaults to 1024 ticks. *)

val writer_tick : writer -> unit
val writer_crash : writer -> Crash.t -> unit
val writer_states : writer -> int
(** Configurations ticked through this writer so far. *)

(** {1 Read-only inspection (the [fcsl jobs] CLI)} *)

val read : string -> record list * int
(** [read dir] scans the journal directory without opening it for
    append (no truncation, no writes): the valid records and the number
    of torn-tail bytes that recovery would drop.  An absent or empty
    journal reads as [([], 0)]. *)

type job = {
  j_spec : string;
  j_params : string;
  j_status : [ `Complete | `Degraded | `Failed | `In_flight ];
  j_tier : string option;
  j_units : int;  (** durable verification units recorded *)
  j_states : int;  (** last journaled explored-configuration count *)
  j_failures : int;
  j_budget : Budget.stats option;
}

val jobs_of_records : record list -> job list
(** Per-spec status digest, in first-appearance order: [`Complete]
    (verdict journaled, ok), [`Degraded] (verdict journaled, budget
    tripped without a failure), [`Failed] (verdict journaled with
    failures), [`In_flight] (begun, not concluded). *)

val status_name : [ `Complete | `Degraded | `Failed | `In_flight ] -> string
(** ["complete"], ["degraded"], ["FAILED"], ["in-flight"]: the status
    column of {!pp_job} and the [status] field of the service's jobs
    rendering. *)

val pp_job : Format.formatter -> job -> unit
val pp_jobs : Format.formatter -> job list -> unit

(** {1 File layout (exposed for tests)} *)

val wal_path : string -> string
val snapshot_path : string -> string
val magic : string
(** The 8-byte file header both journal files carry. *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of a string — the per-record checksum. *)
