(** Structured failure values for the verification engine.

    Every way a run can crash — an unsafe action, broken ghost algebra,
    an exhausted resource budget, an injected fault, or a broken engine
    invariant — is a [Crash.t] carrying a
    {!kind}, a human diagnosis, and the schedule that discovered it.
    The CLI maps kinds to its stable exit codes (see docs/ROBUSTNESS.md);
    [pp]/[to_json] give the textual and machine renderings. *)

type kind =
  | Unsafe_action  (** an enabled atomic action was unsafe in its state *)
  | Ghost_algebra
      (** contribution/hide/fork ghost algebra failed (joins, splits,
          subjective views) *)
  | Postcondition  (** a terminal state violates the spec's post *)
  | Budget_exhausted  (** a resource budget tripped (see {!Budget}) *)
  | Injected_fault  (** a fault injected by the chaos harness *)
  | Internal_error  (** an engine invariant broke (worker death, ...) *)
  | Deadlock
      (** a reachable configuration where every program move is
          disabled and no environment path can re-enable one: all
          threads are blocked for good.  The message carries the
          held-lock set and the blocked moves (see {!Sched.explore}'s
          stuck-state detector). *)
  | Protocol_error
      (** a malformed or unreadable wire frame on the verification
          service's socket protocol: bad JSON, a non-object frame, an
          unknown op, or a request missing required fields.  The daemon
          answers these with a structured error frame carrying this
          crash (see docs/SERVICE.md) instead of dropping the
          connection. *)
  | Io_fault
      (** a journal syscall failed: ENOSPC/EIO on a write, a short
          write that could not complete, a failed fsync or rename.
          The journal absorbs the fault — it stops persisting and
          exposes the crash via {!Journal.io_failure} — so
          verification continues and verdicts are computed fresh
          instead of flipped or phantom (docs/SERVICE.md §6). *)

val kind_name : kind -> string
(** Stable kebab-case name: ["unsafe-action"], ["ghost-algebra"], ... *)

val pp_kind : Format.formatter -> kind -> unit

exception Injected of string
(** The exception fault-injection harnesses raise inside workers and
    exploration hooks; the engine classifies it as {!Injected_fault}
    (anything else escaping a worker is {!Internal_error}). *)

type t

val make : ?trace:string list -> kind -> string -> t
(** [make ?trace kind msg]: [trace] is the discovering schedule, oldest
    step first (default: none recorded). *)

val of_exn : exn -> t
(** Classify an exception caught at a supervision boundary:
    {!Injected} maps to {!Injected_fault}, everything else to
    {!Internal_error} (with [Printexc.to_string] as the message). *)

val kind : t -> kind
val message : t -> string
(** The diagnosis, without the schedule annotation. *)

val trace : t -> string list
(** The discovering schedule, oldest first (possibly empty). *)

val with_trace : string list -> t -> t
(** Replace the recorded schedule. *)

val equal : t -> t -> bool
(** Kind and message equality; traces are first-discovery artifacts and
    are ignored (memoized replay preserves messages, not schedules). *)

val pp : Format.formatter -> t -> unit
(** ["<kind>: <msg> [schedule: s1 ; s2]"]. *)

val to_json : t -> Json.t
(** [{"kind": ..., "msg": ..., "schedule": [...]}]: what the journal
    stores and the service's error and verdict frames carry. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] on an unknown name. *)

val of_json : Json.t -> (t, string) result
(** Read {!to_json}'s value back: [of_json (to_json c) = Ok c'] with
    [equal c c'] and [trace c' = trace c].  Unknown object keys are
    skipped; a non-object, a missing or non-string kind or message, an
    unknown kind or a schedule that is not a string array is an
    [Error].  Text goes through {!Json.parse} first. *)
