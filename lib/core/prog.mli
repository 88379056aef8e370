(** The FCSL program DSL (paper, Figure 3 and Section 5.1): a monadic,
    deeply-embedded language of concurrent programs with typed returns,
    atomic actions, parallel composition, general recursion ([ffix]) and
    scoped concurroid installation ([hide], Section 3.5). *)

open Fcsl_heap
module Aux := Fcsl_pcm.Aux

(** Hide specification: which Priv label donates heap, the decoration
    selecting the donated subheap, the concurroid to install, and its
    initial self/joint-auxiliary values. *)
type hide_spec = {
  hs_priv : Label.t;
  hs_conc : Concurroid.t;
  hs_decor : Heap.t -> Heap.t;
  hs_init : Aux.t;
  hs_jaux : Aux.t;
}

(** The subjective fork split of the Par rule: given the forking
    thread's contribution, produce (reserve, left, right) with the same
    join; [None] when the requested split is unavailable. *)
type split = Contrib.t -> (Contrib.t * Contrib.t * Contrib.t) option

type _ t =
  | Ret : 'a -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t
  | Act : 'a Action.t -> 'a t
  | Par : 'b t * 'c t -> ('b * 'c) t
  | ParSplit : split * 'b t * 'c t -> ('b * 'c) t
  | Ffix : (('i -> 'o t) -> 'i -> 'o t) * 'i -> 'o t
  | Hide : hide_spec * 'a t -> 'a t
  | Annot : Footprint.t * 'a t -> 'a t
      (** A declared effect envelope for the subterm — the analyzer's
          escape hatch for opaque closures.  Semantically transparent,
          and taken on trust: exploration never reads it. *)

val ret : 'a -> 'a t
val bind : 'b t -> ('b -> 'a t) -> 'a t

val ( let* ) : 'b t -> ('b -> 'a t) -> 'a t
(** The monadic notation of Figure 3. *)

val seq : 'b t -> 'a t -> 'a t
val act : 'a Action.t -> 'a t

val par : 'b t -> 'c t -> ('b * 'c) t
(** Fork with unit child contributions (the common split). *)

val par_split : split -> 'b t -> 'c t -> ('b * 'c) t
(** Fork with an explicit subjective split of the parent's
    contribution. *)

val split_cells :
  pv:Label.t -> to_left:Ptr.t list -> to_right:Ptr.t list -> split
(** Move the named private-heap cells of [pv] to the children, keeping
    the rest in reserve. *)

val ffix : (('i -> 'o t) -> 'i -> 'o t) -> 'i -> 'o t
(** General recursion: [f] receives the recursive procedure itself, as
    in [ffix (fun loop x -> ...)] of Figure 3. *)

val hide : hide_spec -> 'a t -> 'a t

val annot : Footprint.t -> 'a t -> 'a t
(** Declare an effect envelope for a subterm. *)

val cond : bool -> 'a t -> 'a t -> 'a t
val unfold_ffix : (('i -> 'o t) -> 'i -> 'o t) -> 'i -> 'o t
val size : 'a t -> int

val footprint : 'a t -> Footprint.t
(** Effect inference over the visible spine: action leaves contribute
    their declared envelopes, [par] joins, [hide] scopes away its
    installed label (and touches the donating private label), and the
    opaque closures of [Bind]/[Ffix] infer [Footprint.top] unless an
    [Annot] overrides them. *)

val pp : Format.formatter -> 'a t -> unit
