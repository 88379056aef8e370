(** The verification service's wire protocol: newline-delimited JSON
    frames over a Unix-domain socket (see docs/SERVICE.md for the frame
    catalogue).

    Requests parse to {!request} or to a [Crash.Protocol_error] — a
    malformed frame is data the server answers with an error frame, not
    an exception.  Response builders return rendered one-line frames
    (no trailing newline); the verdict rendering is timing-stripped by
    construction so resumed-daemon verdicts diff byte-identical against
    uninterrupted ones. *)

open Fcsl_core

(** {1 QoS tiers} *)

type qos = Gold | Silver | Bronze

val qos_name : qos -> string
(** ["gold"], ["silver"], ["bronze"]. *)

val qos_of_name : string -> qos option

val qos_demote : qos -> qos
(** One rung down the ladder: [Gold -> Silver -> Bronze -> Bronze].
    What an overloaded server demotes an accepted submission to;
    bronze, having nowhere lower to go, is shed instead. *)

val qos_limits :
  ?tick_hook:(unit -> unit) -> ?cancel:(unit -> bool) -> qos -> Budget.limits
(** The ladder mapping: gold is unbounded, silver gets a 20s wall
    clock, bronze 5s plus a 20k-state ceiling.  All three thread the
    given [cancel] probe and [tick_hook] through every ladder rung. *)

val digest : case:string -> qos:qos -> string
(** The service-level cache key: ["case=NAME;qos=TIER"].  Embeds the
    case name, so digests never collide across cases. *)

val case_of_digest : string -> string option
val qos_of_digest : string -> qos option

(** {1 Requests} *)

type request =
  | Ping
  | Submit of { case : string; qos : qos }
  | Status
  | Health
  | Ready
  | Cancel of int
  | Drain

val request_of_json : Json.t -> (request, Crash.t) result
val parse_request : string -> (request, Crash.t) result
(** Parse one frame line.  Every failure mode — bad JSON, a non-object,
    a missing/unknown op, missing fields — is a {!Crash.Protocol_error}
    result, never an exception. *)

val request_to_json : request -> Json.t
(** The client-side rendering; [parse_request] inverts it. *)

(** {1 Response frames} *)

val pong : string
val ack : job:int -> digest:string -> position:int -> cached:bool -> string
(** [cached] when the daemon already holds the full-tier verdict for
    this digest: the memo [verdict] frame follows at once, and the
    submission never becomes a queued job ([position] is 0). *)

val shed : reason:string -> queue:int -> string
(** The structured overload answer: ["queue-full"] past the bound,
    ["draining"] after SIGTERM.  Never a hang, never a silent drop. *)

val progress : job:int -> states:int -> string
val drained : string

(** {1 Health and readiness} *)

type overload_state = Normal | Overloaded

val overload_state_name : overload_state -> string
(** ["normal"], ["overloaded"]. *)

val health_fields :
  ?uptime_s:float ->
  ?queue_depth:int ->
  ?inflight:int ->
  ?memo_hit_rate:float ->
  ?journal_lag_bytes:int ->
  ?journal_fault:Crash.t ->
  shed_total:int ->
  overload_state:overload_state ->
  unit ->
  (string * Json.t) list
(** The one health rendering, shared by the live [health] frame, the
    live [status] frame's extra fields, and the offline
    [fcsl jobs status --json] (which passes [None] for the live-only
    gauges — they render as [null]). *)

val ready :
  ready:bool -> draining:bool -> overload_state:overload_state -> string
(** The [ready] frame.  Liveness vs readiness: answering at all is
    liveness; [ready] is true only while the daemon still accepts fresh
    work (not draining).  Overload does not unready the daemon — it
    degrades by policy — but the state rides along. *)

val error_frame : ?job:int -> Crash.t -> string
(** [{"type": "error", "crash": {...}}] with the crash as
    [Crash.to_json] renders it; clients read it back with
    [Crash.of_json].
    [job] is set when the error terminates a specific submission
    (engine exceptions) rather than a malformed frame. *)

val report_json : Verify.report -> Json.t
(** Timing-stripped: elapsed seconds and heap words never enter the
    rendering (the budget only contributes its trip reason). *)

val verdict :
  job:int ->
  case:string ->
  digest:string ->
  memo:bool ->
  fresh_units:int ->
  cancelled:bool ->
  ?degraded:bool ->
  reports:Verify.report list ->
  unit ->
  string
(** The terminal frame of a submission; ["status"] is
    [Verify.exit_code reports].  [degraded] (default false) marks a
    verdict computed under a QoS tier demoted by overload; such a
    verdict is never memoized as the full-tier answer. *)

val canonical_verdict : Json.t -> Json.t
(** Project a verdict frame onto its diff-stable subset (case, status,
    reports minus exploration counters) — what the CI resilience proof
    compares across daemon restarts.  Job ids, memo flags, fresh-unit
    counts and exploration profiles legitimately differ; these fields
    must not. *)

(** {1 Job-status rendering} *)

val schema_version : int
(** Version 2 of the jobs-status JSON schema (v2 added the health
    fields). *)

val jobs_json : ?extra:(string * Json.t) list -> Journal.job list -> Json.t
val jobs_to_json : ?extra:(string * Json.t) list -> Journal.job list -> string
(** The one renderer shared by [fcsl jobs status DIR --json] and the
    daemon's status endpoint.  [extra] fields (live queue depth, drain
    flag) land between ["schema_version"] and ["jobs"]. *)
