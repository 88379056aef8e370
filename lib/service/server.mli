(** The verification daemon behind [fcsl serve]: a Unix-domain-socket
    server scheduling registry cases on the engine, with memoized
    verdicts (see docs/SERVICE.md).

    Concurrency shape: one accept loop, one reader thread per
    connection, one executor thread running cold jobs sequentially (the
    engine's [with_engine] defaults are process-global; the exploration
    itself fans out over [sc_jobs] domains).  A memo hit is answered by
    its connection's reader thread from an in-memory table of finished
    full-tier verdicts, and never becomes a job.  Robustness contract:
    bounded cold queue with structured shed frames, client-disconnect
    cancellation through the budget's cancel probe, crash-safe resume
    from the job ledger, graceful drain on SIGTERM. *)

open Fcsl_core

type config = {
  sc_socket : string;  (** Unix-domain socket path *)
  sc_journal_dir : string;  (** journal directory (WAL + snapshot) *)
  sc_resume : bool;
      (** recover the journal and re-enqueue in-flight ledger jobs *)
  sc_fsync : Journal.fsync_policy option;  (** [None]: journal default *)
  sc_queue_bound : int;
      (** cold-queue capacity; submissions past it are shed.  Memo hits
          never enter the queue — they cost no exploration *)
  sc_jobs : int;  (** domains per exploration (not concurrent jobs) *)
  sc_signals : bool;
      (** install SIGTERM/SIGINT drain handlers (off for in-process
          servers inside tests and the chaos harness) *)
  sc_job_delay_s : float;
      (** artificial pre-exploration delay per job — the chaos/test
          hook that makes mid-job kills and queue overflow
          deterministic *)
  sc_overload_high : int;
      (** cold-queue depth at which the overload state machine declares
          pressure: bronze submissions shed, gold/silver demoted one
          QoS rung (verdicts marked [degraded]) *)
  sc_overload_low : int;
      (** depth at which pressure is released (hysteresis: strictly
          below [sc_overload_high], so the state can't flap) *)
  sc_rate : (float * int) option;
      (** per-client token bucket [(rate_per_s, burst)]; [None]
          disables rate limiting.  A client past its bucket is answered
          with [shed {"reason": "rate-limited"}] *)
}

val config :
  ?resume:bool ->
  ?fsync:Journal.fsync_policy ->
  ?queue_bound:int ->
  ?jobs:int ->
  ?signals:bool ->
  ?job_delay_s:float ->
  ?overload_high:int ->
  ?overload_low:int ->
  ?rate:float * int ->
  socket:string ->
  journal_dir:string ->
  unit ->
  config
(** Defaults: no resume, journal-default fsync, queue bound 16, 1
    domain, signals installed, no delay, watermarks at
    3/4 and 1/4 of the queue bound, no rate limit. *)

type t

val shed_total_of_records : Journal.record list -> int
(** The cumulative shed count a journal's shed ledger records: the
    largest count any surviving [shed/CASE] record carries (0 when there
    is none).  [create] restores its counter with it under [sc_resume],
    and [fcsl jobs status --json] reports it for a journal on disk. *)

val create : config -> t
(** Open (or recover) the journal and, under [sc_resume], re-enqueue
    the ledger's in-flight jobs as waiter-less keepers and replay each
    finished full-tier digest's verdict from the journal into the memo
    table, all before {!run} binds the socket. *)

val run : t -> unit
(** Serve until drained: blocks the calling thread through the accept
    loop and returns after the queue is empty, every verdict is
    journaled and the socket is unlinked.  Closes the journal. *)

val drain : t -> unit
(** Stop accepting submissions (they shed with reason ["draining"]),
    finish queued work, then let {!run} return.  Idempotent; also
    triggered by SIGTERM/SIGINT when [sc_signals] is set. *)

val stop : t -> unit
(** Alias of {!drain} — the in-process shutdown used by tests. *)
