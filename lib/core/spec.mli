(** Hoare specifications (paper, Section 2.2.3): an executable
    precondition over the initial subjective state and a postcondition
    relating result, initial state (standing in for logical variables)
    and final state.  In Coq specs are types; here ascription is
    discharged by {!Verify} and {!Rules}. *)

type 'a t

val make :
  name:string ->
  pre:(State.t -> bool) ->
  post:('a -> State.t -> State.t -> bool) ->
  'a t
(** [post r i f]: result, initial view, final view. *)

val name : 'a t -> string
val pre : 'a t -> State.t -> bool
val post : 'a t -> 'a -> State.t -> State.t -> bool

val implies :
  (State.t -> bool) -> (State.t -> bool) -> State.t list -> bool
(** Entailment over an enumerated universe. *)

val strengthen_post : ('a -> State.t -> State.t -> bool) -> 'a t -> 'a t
val strengthen_pre : (State.t -> bool) -> 'a t -> 'a t
val pp : Format.formatter -> 'a t -> unit
