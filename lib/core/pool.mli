(** A minimal fixed-size domain pool (OCaml 5 domains, no external
    dependencies) for fanning verification work out across cores, with
    per-item supervision: one crashing item is captured as a [result]
    instead of destroying its siblings' work. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

type error = {
  e_exn : exn;  (** the exception of the last failing attempt *)
  e_backtrace : Printexc.raw_backtrace;
  e_attempts : int;  (** attempts made (1 + retries) before quarantine *)
  e_backoff_s : float;
      (** total seconds slept in backoff before retries (0 when the
          item never backed off) *)
}

val pp_error : Format.formatter -> error -> unit

val backoff_delay : seed:int -> base:float -> int -> int -> float
(** [backoff_delay ~seed ~base i k]: the seconds slept before attempt
    [k] (2-based: the first retry) of item index [i] — [base] doubling
    per further attempt, scaled by a jitter factor in [0.5, 1.5) drawn
    deterministically from [(seed, i, k)].  Exposed so tests and
    operators can predict the exact schedule. *)

exception Never_ran
(** The placeholder exception of an item lost to a worker that died
    between claiming and storing (should be unreachable: every
    application is wrapped, but the slot is pre-filled so the loss
    surfaces as an explicit [Error] rather than an [Option.get] crash
    masking the real failure). *)

val map_result :
  jobs:int ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_seed:int ->
  ?until:(('b, error) result -> bool) ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** [map_result ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains (the caller's domain included); items are claimed off a
    shared counter, so uneven items balance across domains.  Order is
    preserved.

    With [until], the list ends at the first item whose result
    satisfies [until]: it is the prefix of [List.map f xs] up to and
    including that item, whatever [jobs] is.  No item is started once
    an earlier one is known to satisfy [until], so with [jobs <= 1] no
    item past it runs; with more domains, only items already started
    run past it, and their results are dropped.

    Supervision is per item: an application that raises is retried up to
    [retries] more times (default 1 — retry once), then quarantined as
    [Error] with the exception, its backtrace, the attempt count and the
    total backoff slept.  Sibling items' results are unaffected.  [f]
    must therefore be safe to run concurrently with itself {e and} safe
    to re-run on the same item (exploration is pure, so both hold in
    this codebase).

    Before each retry the worker sleeps an exponential backoff with
    seeded jitter — [backoff_s] (default 0.01s, [0.] disables) doubling
    per retry, scaled by a factor in [0.5, 1.5) drawn deterministically
    from [(backoff_seed, item index, attempt)] — so items quarantined by
    the same transient (resource exhaustion) don't re-hit it in
    lockstep.

    Cooperative deadlines: items that should stop early poll a shared
    {!Budget.t} inside [f]; the pool itself never kills a domain.
    [jobs <= 1] degrades to a supervised sequential map. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** All-or-nothing wrapper over {!map_result} with [retries:0]: if any
    application raised, one such exception is re-raised (with its
    backtrace) after all items have been attempted and all domains have
    joined.  Use only where partial results are useless. *)
