(** One concurroid's portion of a subjective state: the triple
    [self | joint | other] of the paper's Section 2.2.1.

    [self] and [other] are PCM elements owned by the observing thread
    and its environment; the joint component is shared.  As in the
    paper, each component may mix real state (heap) and auxiliary state:
    the joint component is split into its real heap [joint] and its
    auxiliary part [jaux]. *)

open Fcsl_heap
module Aux := Fcsl_pcm.Aux

type t

val make : self:Aux.t -> joint:Heap.t -> other:Aux.t -> t
(** A slice with unit joint auxiliary. *)

val make_jaux : self:Aux.t -> joint:Heap.t -> jaux:Aux.t -> other:Aux.t -> t

val self : t -> Aux.t
val joint : t -> Heap.t
val jaux : t -> Aux.t
val other : t -> Aux.t
val empty : t

val transpose : t -> t
(** Swap the observing thread's and the environment's roles; the
    viewpoint from which interference is expressed. *)

val valid : t -> bool
(** [self • other] is defined. *)

val combined : t -> Aux.t option
(** [self • other]. *)

val combined_exn : t -> Aux.t

val with_self : Aux.t -> t -> t
val with_joint : Heap.t -> t -> t
val with_jaux : Aux.t -> t -> t
val with_other : Aux.t -> t -> t

val realign : t -> self:Aux.t -> other:Aux.t -> t option
(** Fork-join realignment: replace the (self, other) split by another
    split of the same combined value; [None] if the totals differ. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Semantic total order over all four components, consistent with
    {!equal}. *)

val hash : t -> int
(** Consistent with {!equal}; used by memoized exploration. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
