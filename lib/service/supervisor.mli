(** The watchdog behind [fcsl serve --supervise]: spawn the daemon as a
    child process, restart it with resume semantics when it dies
    (crash, kill -9, OOM), give up after too many failures in a sliding
    window (see docs/SERVICE.md §6).

    The supervisor holds no daemon state — the journal is the restart
    contract: every child after the first runs with [--resume], so the
    in-flight ledger is re-enqueued and memoized verdicts survive. *)

val exit_gave_up : int
(** The stable exit code (4) for "the restart budget is exhausted" —
    disjoint from the verdict codes 0..3, so orchestrators can tell a
    crash loop from a drained daemon. *)

val exit_stopped : int
(** The stable exit code (5) for "stopped on request while the daemon
    was down": a SIGTERM/SIGINT arrived during a restart backoff, or
    the child it was forwarded to died non-zero instead of draining. *)

type config = {
  sv_restart_limit : int;
      (** give up once this many failures land inside the window *)
  sv_window_s : float;  (** the sliding failure window, seconds *)
  sv_backoff_base_s : float;
      (** base restart delay; doubles per failure in the window, with
          the jitter of [Pool.backoff_delay] *)
  sv_backoff_seed : int;  (** jitter seed (deterministic schedules) *)
  sv_pidfile : string option;
      (** write the current child's pid here after each spawn — how the
          CI soak drill (and an operator's [kill]) finds the daemon
          under the supervisor *)
  sv_log : string -> unit;  (** one line per supervision event *)
}

val config :
  ?restart_limit:int ->
  ?window_s:float ->
  ?backoff_base_s:float ->
  ?backoff_seed:int ->
  ?pidfile:string ->
  ?log:(string -> unit) ->
  unit ->
  config
(** Defaults: 5 failures in 60 s, 0.25 s base backoff, seed 0, no
    pidfile, silent. *)

val run : config -> spawn:(restart:bool -> int) -> int
(** Supervise: call [spawn] (which must fork a daemon child and return
    its pid — the caller owns the fork, so no fork ever happens under a
    process that already spawned domains), wait, classify.  A child
    exiting 0 (drained) ends supervision with 0; any other death is a
    failure answered with a jittered-backoff restart ([restart:true] —
    the child must resume), until the window fills and the supervisor
    returns {!exit_gave_up}.  SIGTERM/SIGINT to the supervisor are
    recorded and forwarded to the child as SIGTERM (graceful drain),
    after which the clean exit propagates.  Once a request is recorded
    no child is spawned again: a request during a restart backoff ends
    the backoff at once, and a request whose child dies non-zero ends
    supervision; both return {!exit_stopped}. *)
