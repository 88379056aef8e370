(** Atomic actions (paper, Sections 2.2.2 and 3.4): one physical
    read-modify-write operation fused with a simultaneous change to the
    auxiliary state.  The metatheory laws — erasure, other-fixity,
    transition correspondence, footprint preservation — are executable
    checks run by the case-study test suites. *)

open Fcsl_heap

(** Physical operations, for erasure checking. *)
type phys =
  | Read of Ptr.t
  | Write of Ptr.t * Value.t
  | Cas of { loc : Ptr.t; expect : Value.t; replace : Value.t }
  | Faa of { loc : Ptr.t; incr : int }
  | Id

val pp_phys : Format.formatter -> phys -> unit

val apply_phys : phys -> Heap.t -> (Heap.t * Value.t) option
(** What the operation does to a raw heap: updated heap and physical
    result; [None] when it faults. *)

type 'a t

val make :
  ?communicating:bool ->
  ?enabled:(State.t -> bool) ->
  ?fp:Footprint.t ->
  name:(unit -> string) ->
  safe:(State.t -> bool) ->
  step:(State.t -> 'a * State.t) ->
  phys:(State.t -> phys) ->
  unit ->
  'a t
(** [communicating] actions step several concurroids at once and may
    transfer heap ownership between them (Section 4.1); they are exempt
    from per-label transition correspondence but must preserve the
    global footprint.  [enabled] is the scheduling guard: a disabled
    action blocks its thread rather than stepping — the standard sound
    reduction of retry-until-success loops for partial correctness.
    [fp] is the action's declared effect envelope (default
    [Footprint.top], i.e. unknown); it feeds the static analyzer, the
    lints and the independence report.  [name] renders the action's
    name; it is called only when a name is read ({!name}), never to
    build or step the action. *)

val name : 'a t -> string
(** Render the name. *)

val name_thunk : 'a t -> unit -> string
(** The name, unrendered: what {!make} was given. *)

val safe : 'a t -> State.t -> bool
val enabled : 'a t -> State.t -> bool

val blocking : 'a t -> bool
(** Whether an [enabled] guard was declared: guarded actions are the
    potential blocking points the static deadlock analysis classifies
    as acquisitions. *)

val phys : 'a t -> State.t -> phys

val footprint : 'a t -> Footprint.t
(** The declared effect envelope. *)

val step : 'a t -> State.t -> 'a * State.t
(** Step without checking {!safe}: the caller has checked it in this
    state. *)

val step_exn : 'a t -> State.t -> 'a * State.t
(** Raises [Invalid_argument] when unsafe. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Post-compose the result; the state transformation and all laws are
    unchanged. *)

(** {1 Law checking} *)

type violation = { law : string; witness : string }

val pp_violation : Format.formatter -> violation -> unit

val check_laws :
  ?max_violations:int -> World.t -> 'a t -> states:State.t list -> violation list
(** Check erasure, other-fixity, transition correspondence, footprint
    preservation and coherence preservation over the supplied coherent
    states. *)
