(** Effect envelopes over labels: which concurroid labels a program,
    spec, or action may read, write, or CAS.  A join-semilattice with
    [top] ("may touch anything") — the element every opaque OCaml
    closure in the DSL maps to.  The static analyzer, the lints and
    the independence report read envelopes (see DESIGN.md,
    Section 10). *)

type access = Read | Write | Cas

val pp_access : Format.formatter -> access -> unit

type t

val top : t
(** Unknown effects: may touch every label in every way. *)

val bot : t
(** No effects (pure). *)

val is_top : t -> bool

val of_list : (Label.t * access list) list -> t
(** Build an envelope from per-label access lists; repeated labels
    join. *)

val reads : Label.t -> t
(** Reads the label. *)

val writes : Label.t -> t
(** Reads and writes the label. *)

val cases : Label.t -> t
(** Reads and CASes the label. *)

val touches : Label.t -> t
(** Reads, writes and CASes the label. *)

val join : t -> t -> t
val join_all : t list -> t

val labels : t -> Label.Set.t option
(** The touched label set; [None] for [top] ("all labels"). *)

val mem : t -> Label.t -> bool

val remove : t -> Label.t -> t
(** The envelope with a label scoped away — what remains visible outside
    a [hide] that installs it.  [top] stays [top]. *)

val commutes : t -> t -> bool
(** [commutes a b]: the envelopes cannot interfere — every label both
    touch is read-only on both sides, so steps confined to them reach
    the same configuration in either order.  [top] commutes only with
    the empty envelope.  Symmetric. *)

val subsumes : t -> t -> bool
(** [subsumes outer inner]: every access [inner] may perform, [outer]
    declares too. *)

val equal : t -> t -> bool

val accesses : t -> Label.t -> access list
(** The access kinds the envelope grants at a label (all three under
    [top], none for an untouched label). *)

val pp : Format.formatter -> t -> unit
