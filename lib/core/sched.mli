(** Operational semantics of the DSL: a small-step interleaving
    scheduler over configurations, with optional environment
    interference.

    A thread's subjective view of label [l] is
    [self = its own contribution], [joint = the shared heap],
    [other = external contribution • sibling contributions] — FCSL's
    subjective split, realized by per-thread PCM contributions that fork
    and rejoin at [par].

    Administrative steps (monad laws, recursion unfolding, hide
    installation, joins) are performed eagerly — they commute with other
    threads' steps — so scheduling choice points are exactly the atomic
    actions and environment-interference insertions. *)

open Fcsl_heap

type genv = {
  joints : Heap.t Label.Map.t;
  jauxs : Contrib.t;  (** per-label joint auxiliary state *)
  ext_other : Contrib.t;  (** the external environment's contribution *)
  world : World.t;  (** ambient + dynamically installed concurroids *)
  interfere : Label.Set.t;  (** labels open to environment interference *)
  ghash : int;
      (** incremental fingerprint of [joints]/[jauxs]/[ext_other],
          XOR-patched per touched label as the scheduler steps; config
          keys read it instead of re-folding the maps.  Maintained by
          {!Sched} — always equal to {!recompute_ghash}. *)
}

val recompute_ghash : genv -> int
(** The shared-state fingerprint recomputed from scratch — the value
    [genv.ghash] must equal at every reachable configuration (checked
    by the representation test suite). *)

type _ rt
(** Runtime thread trees. *)

val inject : 'a Prog.t -> 'a rt

val as_ret : 'a rt -> 'a option
(** The result, if the whole tree has terminated. *)

val view : genv -> around:Contrib.t -> mine:Contrib.t -> State.t option
(** The subjective state of a thread with contribution [mine] among
    sibling contributions [around]. *)

(** {1 Single-step interface}

    Exposed so that {!Tree} can build denotational unfoldings from the
    same step relation the scheduler uses. *)

type 'a norm = Norm of genv * Contrib.t * 'a rt | Norm_crash of Crash.t

val normalize : genv -> Contrib.t -> 'a rt -> 'a norm
(** Eager administrative reduction (monad laws, joins, hide
    installation); the result's leaves are all atomic actions, or the
    whole tree is a return. *)

type 'a move

val move_name : 'a move -> string
val move_next : 'a move -> (genv * Contrib.t * 'a rt, Crash.t) result

val moves : genv -> Contrib.t -> Contrib.t -> 'a rt -> 'a move list
(** The enabled atomic-action moves of every leaf (args: genv, sibling
    contributions, own contribution, tree). *)

val env_moves : genv -> Contrib.t -> 'a rt -> (string * genv) list
(** The enabled environment-interference steps. *)

(** {1 Configuration fingerprinting}

    Canonical, hashable keys for scheduler configurations, the backbone
    of memoized exploration.  State-like parts (joint heaps, auxiliary
    contributions) are compared semantically; thread trees embed OCaml
    closures, so their atoms are identified by a per-exploration
    identity registry — conservative (a missed identification only
    forfeits pruning), and exact on the diamonds of commuting steps,
    which share their unreduced subtrees physically. *)

type keyer
(** An atom-identity registry.  Keys from different keyers are not
    comparable. *)

val new_keyer : unit -> keyer

val same_atom : Obj.t -> Obj.t -> bool
(** Whether a keyer identifies two runtime representations: equal
    immediates, strings and floats, blocks of equal tag with identified
    fields, and closures with the same code words and identified
    captures.  A comparison that visits more than a fixed number of
    nodes answers [false].  It allocates nothing. *)

type rt_key
(** A hash-consed thread-tree key: within one keyer, equal tree shapes
    have physically equal keys. *)

type config_key

val config_key :
  ?prev:'a rt * rt_key -> keyer -> genv -> Contrib.t -> 'a rt -> config_key
(** The key of the configuration [(genv, mine, rt)].  With
    [~prev:(rt0, k0)], where [k0] is the tree key of [rt0] from the same
    keyer, the tree key is built incrementally, as exploration builds
    it along a move from [rt0]: every subtree, closure and action that
    is physically one of [rt0]'s reuses its part of [k0].  The result
    is physically the tree key built from scratch. *)

val config_key_rt : config_key -> rt_key
(** The key's tree part. *)

val config_key_equal : config_key -> config_key -> bool
val config_key_hash : config_key -> int

val fingerprint : keyer -> genv -> Contrib.t -> 'a rt -> int
(** [config_key_hash] of {!config_key}: a cheap configuration digest. *)

type 'a outcome =
  | Finished of 'a * State.t
      (** result and the root thread's final subjective view *)
  | Crashed of Crash.t
      (** an enabled action was unsafe, or ghost algebra failed: a
          verification failure with its witness (kind, diagnosis and
          discovering schedule) *)
  | Diverged
      (** fuel exhausted, or all threads blocked while environment
          interference can still unblock one (a budget artifact, not a
          deadlock) *)

val pp_outcome :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a outcome -> unit

type explore_stats = {
  mutable es_configs : int;
      (** configurations entered (the same cadence as {!Budget.tick}) —
          the "explored states" the reports and benchmarks surface *)
  mutable es_memo_hits : int;  (** memoized subtrees replayed *)
  mutable es_memo_misses : int;  (** configurations explored afresh *)
  mutable es_max_bucket : int;
      (** most distinct configuration keys observed in one memo hash
          bucket.  The memo table starts small and grows with the keys
          an exploration stores ([Hashtbl] doubles it once they average
          two per bucket), so this reflects the table's load, not the
          quality of the hash. *)
  mutable es_minor_words : float;
      (** [Gc.minor_words] allocated during exploration *)
}
(** Exploration accounting, so the effect of dedup — and the cost of
    the hot path itself — is measured rather than guessed. *)

val new_stats : unit -> explore_stats

val explore :
  ?fuel:int ->
  ?max_outcomes:int ->
  ?interference:bool ->
  ?env_budget:int ->
  ?dedup:bool ->
  ?budget:Budget.t ->
  ?journal:Journal.writer ->
  ?stats:explore_stats ->
  ?check:('a -> State.t -> Crash.t option) ->
  f:('acc -> 'a outcome -> 'acc) ->
  init:'acc ->
  genv ->
  Contrib.t ->
  'a Prog.t ->
  'acc * bool
(** Depth-first exploration of all interleavings and (bounded by
    [env_budget]) all environment-step insertions, up to [fuel] steps
    per path.  Once the search ends, folds [f] from [init] over the
    outcomes in the order the search emitted them (memo replays
    included), and returns the result with a completeness flag ([false]
    when [max_outcomes] was hit or [budget] tripped; the fold then
    covers the outcomes emitted before the cut).  No list of outcomes is
    built: a caller that wants one folds into it.

    With [dedup] (default [false]), a configuration already exhausted at
    no less remaining fuel and environment budget is pruned by replaying
    its recorded outcomes — collapsing the diamonds of commuting steps
    while preserving the failure set and the completeness verdict; crash
    messages keep the schedule of their first discovery.

    With [check] (the caller's postcondition), each [Finished (v, st)]
    outcome is checked once, when the search first records it, after
    the journal hook: [check v st = Some c] records [Crashed c] in its
    place, and [None] keeps the outcome.  The memo stores the checked
    outcome, and a replay re-emits its verdict without calling [check]
    or the journal again, so the check runs once per discovered final
    state.  A [c] made by [check] is never journaled: {!Journal} gets
    only the crashes the search itself found.

    With [budget], one {!Budget.tick} is charged per explored
    configuration; a trip aborts the search through the same path as a
    [max_outcomes] cut (so [complete] is [false] and no truncated memo
    entry is ever stored).  The caller reads the trip reason off the
    shared {!Budget.t}.

    With [journal], one {!Journal.writer_tick} is charged per explored
    configuration (appending periodic {!Journal.Frontier} records) and
    every crash the search finds is journaled at discovery as a
    {!Journal.Counterexample} — durable evidence that survives a
    SIGKILL mid-search.  Memo replays do not journal again.

    With [stats], explored-configuration counts are accumulated into the
    given record.

    Stuck-state detection is always on: a configuration where every
    program move is disabled is checked against the bounded closure of
    environment transitions (ignoring the remaining interference
    budget, whose exhaustion must never manufacture a deadlock).  When
    no reachable environment state re-enables any program move, the
    path records a {!Crash.Deadlock} crash whose message carries the
    held-lock set (per {!Concurroid.lock_info}) and the blocked moves;
    otherwise it remains [Diverged] exactly as before. *)

val run_with_chooser :
  ?fuel:int ->
  choose:(step:int -> string list -> int) ->
  ?observe:(genv -> Contrib.t -> string -> unit) ->
  genv ->
  Contrib.t ->
  'a Prog.t ->
  'a outcome
(** Run one schedule selected by [choose] over the enabled move names;
    [observe] sees each configuration after each step (used by the
    Figure 2 staging replay).  No environment moves are injected. *)

val run_random :
  ?fuel:int ->
  ?interference:bool ->
  ?budget:Budget.t ->
  ?journal:Journal.writer ->
  seed:int ->
  genv ->
  Contrib.t ->
  'a Prog.t ->
  'a outcome
(** Run one pseudo-random schedule; with [interference], environment
    steps are inserted with probability ~1/4 at each point.  A [budget]
    is ticked once per step; a trip ends the run as [Diverged] (sampled
    runs are incomplete by construction — the caller reads the trip off
    the shared {!Budget.t}). *)

val genv_of_state :
  ?interfere:Label.t list -> World.t -> State.t -> genv * Contrib.t
(** Set up a configuration from a subjective initial state: its selves
    seed the root thread's contribution, its others the external
    environment. *)
