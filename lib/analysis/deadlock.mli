(** Static deadlock & progress analysis: lock-order graphs,
    must-release checking, and parsing of the scheduler's dynamic
    stuck-state witness (docs/ANALYSIS.md, §Deadlock).

    Locks are censused from {!Fcsl_core.Concurroid.lock_info}
    self-declarations; events are classified by declared acquire/release
    name prefixes, corroborated by the action's scheduling guard
    ({!Fcsl_core.Action.blocking}) and CAS accesses in its declared
    footprint.  Acquisition paths — from a visible-spine [Prog] walk or
    from declared {!script}s — fold into a global lock-order graph;
    cycles are reported as located potential deadlocks, and an acyclic
    graph yields a certified total order.  Complete paths are
    additionally checked for must-release: exiting a scope (return,
    [hide] exit, or crash exit) still holding a lock is an error.

    The soundness envelope and the registry-wide static/dynamic
    differential that keeps the declarations honest are documented at
    the top of the implementation and in docs/ANALYSIS.md. *)

open Fcsl_core

val rule_cycle : string
(** "lock-cycle": a cycle in the global lock-order graph. *)

val rule_must_release : string
(** "must-release": a complete path exits its scope holding a lock. *)

val rule_no_release : string
(** "lock-no-release": a case's inventory acquires a lock but contains
    no releasing move. *)

val rule_order_unknown : string
(** "lock-order-unknown": a multi-lock world with no acquisition-path
    summaries — the order cannot be certified from the census alone. *)

(** {1 Lock census} *)

type lock = {
  lk_label : Label.t;
  lk_name : string;  (** [Label.name], the cross-layer identifier *)
  lk_conc : string;  (** concurroid name, e.g. "CLock" *)
  lk_acquires : string list;  (** acquiring-action name prefixes *)
  lk_releases : string list;  (** releasing-action name prefixes *)
}

val locks_of_world : World.t -> lock list
(** Every lock-shaped concurroid of the world, per its
    {!Fcsl_core.Concurroid.lock_info} self-declaration. *)

(** {1 Events and acquisition paths} *)

type event =
  | Acquire of {
      e_lock : string;
      e_loc : string;
      e_blocking : bool;  (** the action has a scheduling guard *)
      e_cas : bool;  (** the declared footprint CASes the lock label *)
    }
  | Release of { e_lock : string; e_loc : string }

val event_lock : event -> string
val pp_event : Format.formatter -> event -> unit

val classify : locks:lock list -> loc:string -> Independence.any_action -> event option
(** Classify one schedulable action against the census: acquire or
    release by declared name prefix, [None] for lock-unrelated moves. *)

type exit_kind = Returns | Hide_exit | Crash_exit

val exit_name : exit_kind -> string

type path = {
  th_name : string;
  th_events : event list;  (** in program order *)
  th_complete : bool;
      (** [false] when the walk crossed an opaque continuation; the
          visible prefix still contributes order edges but is exempt
          from must-release checking *)
  th_exit : exit_kind;
}

val paths_of_prog : locks:lock list -> name:string -> 'a Prog.t -> path list
(** The visible-spine walk: one path per [par] arm; [Bind]
    continuations and [Ffix] bodies are opaque closures, so paths
    crossing them are marked incomplete. *)

(** {1 Declared acquisition scripts}

    A script declares one thread's lock events explicitly.  The
    injected scenarios build both their static paths and their dynamic
    programs from one script value, so the layers cannot drift. *)

type step = S_acquire of string | S_release of string

type script = {
  sc_thread : string;
  sc_steps : step list;
  sc_exit : exit_kind;
}

val path_of_script : script -> path
val paths_of_scripts : script list -> path list

(** {1 The lock-order graph} *)

type edge = {
  ed_from : string;  (** holding this lock ... *)
  ed_to : string;  (** ... a thread acquires this one *)
  ed_via : string;  (** the witnessing acquisition step *)
}

type graph = { g_locks : string list; g_edges : edge list }

val graph_of_paths : locks:lock list -> path list -> graph
val cycles : graph -> string list list
(** All simple cycles, each in its lexicographically least rotation;
    a self-edge (non-reentrant re-acquisition) is a length-1 cycle. *)

val total_order : graph -> string list option
(** Kahn's topological sort with name-sorted tie-breaking: the
    deterministic certified order, or [None] when cyclic. *)

(** {1 Verdicts} *)

type verdict = {
  v_case : string;
  v_locks : string list;
  v_order : string list option;
      (** the certified total lock order, when the graph is acyclic *)
  v_cycles : string list list;
  v_findings : Diag.finding list;
}

val clean : verdict -> bool
(** No error-severity findings. *)

val analyze_paths : case:string -> locks:lock list -> path list -> verdict
val analyze_scripts : case:string -> locks:lock list -> script list -> verdict

val analyze_case : string -> verdict option
(** One Table 1 row, through its {!Independence} inventory: census the
    locks, classify the schedulable moves, flag acquired-never-released
    locks, and certify the (trivial) order when the world has at most
    one lock. *)

val analyze_all : unit -> verdict list
(** {!analyze_case} over every registry row that has an inventory. *)

(** {1 The dynamic witness, parsed back}

    The scheduler's stuck-state message has a load-bearing shape
    ("... held locks: \{A, B\}; blocked: \[m awaiting B\]"); these
    parsers recover the located lock names so the differential tests
    compare static verdicts and dynamic witnesses by name. *)

val held_of_witness : Crash.t -> string list
val awaited_of_witness : Crash.t -> string list
val witness_locks : Crash.t -> string list
(** Held and awaited lock names, sorted and deduplicated; empty for
    non-deadlock crashes. *)

(** {1 Rendering} *)

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_json : verdict -> Json.t
