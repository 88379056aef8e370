(** The client side of the service protocol — what [fcsl submit], the
    tests and the bench harness speak.  Blocking,
    line-framed, one request in flight per connection. *)

open Fcsl_core

type conn

val connect : socket:string -> conn
(** Raises [Unix.Unix_error] when the daemon isn't there. *)

val close : conn -> unit

val abandon : conn -> unit
(** Abrupt teardown mid-stream — from the server's side
    indistinguishable from a SIGKILLed client (the disconnect test). *)

val send : conn -> Protocol.request -> unit
val send_raw : conn -> string -> unit
(** Write one raw line (no validation) — the torn-frames test. *)

val read_frame : ?timeout_s:float -> conn -> (Json.t, string) result

val ping : ?timeout_s:float -> conn -> bool

type verdict = {
  v_job : int;
  v_case : string;
  v_status : int;  (** the [Verify.exit_code] taxonomy: 0/1/2/3 *)
  v_memo : bool;  (** served entirely from the journal memo *)
  v_fresh_units : int;  (** durable units this job added *)
  v_cancelled : bool;
  v_frame : Json.t;  (** the full verdict frame *)
}

type submit_error =
  | Shed of string  (** structured overload answer, with its reason *)
  | Server_error of Crash.t
  | Transport of string

val pp_submit_error : Format.formatter -> submit_error -> unit

val submit :
  ?qos:Protocol.qos ->
  ?timeout_s:float ->
  ?on_progress:(int -> unit) ->
  conn ->
  case:string ->
  (verdict, submit_error) result
(** Submit one registry case and block until the terminal frame.
    [on_progress] sees the streamed states counter.  Defaults:
    gold QoS, 600s timeout. *)

val health : ?timeout_s:float -> conn -> (Json.t, submit_error) result
(** The daemon's health frame: uptime, queue depth, in-flight count,
    shed total, memo-hit rate, overload state, journal lag and the
    wounded-journal diagnosis if any (schema: {!Protocol.health_fields}). *)

val ready : ?timeout_s:float -> conn -> (bool, submit_error) result
(** The readiness probe: [Ok true] while the daemon accepts fresh work
    (i.e. it is not draining).  Liveness is the probe answering at
    all. *)

val status : ?timeout_s:float -> conn -> (Json.t, submit_error) result
(** The daemon's live status frame: the journal-derived jobs rendering
    (same schema as [fcsl jobs status --json]) plus queue depth, the
    drain flag and the health fields. *)

type retry_verdict = {
  rv_verdict : verdict;
  rv_attempts : int;  (** 1 = the first attempt succeeded *)
  rv_backoff_s : float;  (** total seconds slept between attempts *)
}

val submit_retry :
  ?qos:Protocol.qos ->
  ?retries:int ->
  ?retry_budget_s:float ->
  ?attempt_timeout_s:float ->
  ?backoff_base_s:float ->
  ?backoff_seed:int ->
  ?on_progress:(int -> unit) ->
  socket:string ->
  case:string ->
  unit ->
  (retry_verdict, submit_error) result
(** Submit with retries: a fresh connection per attempt, jittered
    exponential backoff ([Pool.backoff_delay]) between attempts,
    retrying transport failures and sheds (a supervised daemon may be
    mid-restart; an overloaded one may recover).  Structured server
    errors are deterministic and fail fast.  [retries] (default 3)
    bounds the retries after the first attempt, [retry_budget_s]
    (default 60) the total wall clock including backoff,
    [attempt_timeout_s] (default 600) each attempt.  Resubmission is
    idempotent on the params digest: a retry landing after the first
    attempt completed server-side is served from the journal memo,
    observable as [v_memo = true]. *)

val drain : ?timeout_s:float -> conn -> (unit, submit_error) result

val wait_ready : ?timeout_s:float -> socket:string -> unit -> bool
(** Poll until the daemon answers a ping (default 10s).  The poll step
    starts at 1 ms and doubles up to 50 ms. *)
