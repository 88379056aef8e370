(** Treiber-stack clients (paper, Section 6): the sequential stack
    obtained by [hide] (interference encapsulated, the history spec
    collapses to plain LIFO) and the producer/consumer pair.  Both
    reason entirely out of the stack's specification. *)

open Fcsl_heap
open Fcsl_core

val pv_label : Label.t
val tb_label : Label.t
val n1 : Ptr.t
val n2 : Ptr.t
val initial_priv_heap : Heap.t
val stack_cells : Ptr.t list
val hide_spec : Prog.hide_spec

val seq_stack_prog : (int option * int option * int option) Prog.t
(** push 1; push 2; pop; pop; pop under [hide]. *)

val seq_stack_spec : (int option * int option * int option) Spec.t
(** LIFO: (Some 2, Some 1, None), and the structure returns to the
    private heap. *)

val producer : unit Prog.t
val consumer : (int * int) Prog.t
val prod_cons_prog : (unit * (int * int)) Prog.t
val prod_cons_spec : (unit * (int * int)) Spec.t
(** Every produced value consumed exactly once. *)

val world : unit -> World.t
val init_states : unit -> State.t list
val verify_seq : ?fuel:int -> ?max_outcomes:int -> unit -> Verify.report
(** The sequential stack's triple (Table 1 row "Seq. stack"). *)

val verify_prod_cons : ?fuel:int -> ?max_outcomes:int -> unit -> Verify.report
(** The producer/consumer triple (Table 1 row "Prod/Cons"). *)
