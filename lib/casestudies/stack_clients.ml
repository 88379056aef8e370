(* Treiber-stack clients (paper, Section 6, Table 1 rows "Seq. stack"
   and "Prod/Cons"): both reason entirely out of the stack's
   specification — no new concurroids, actions or stability lemmas.

   - The sequential stack is the Treiber stack wrapped in [hide]: with
     interference encapsulated, the subjective history spec collapses to
     the ordinary LIFO spec.
   - The producer/consumer runs a pushing and a popping thread in
     parallel; every produced value is consumed exactly once. *)

open Fcsl_heap
open Fcsl_core
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

(*!Main*)
let pv_label = Label.make "stack_clients_priv"
let tb_label = Label.make "stack_clients_treiber"

let n1 = Ptr.of_int 95
let n2 = Ptr.of_int 96

(* A private heap holding an (empty) stack top cell and two node cells. *)
let initial_priv_heap =
  Heap.of_list
    [
      (Treiber.top_cell, Value.ptr Ptr.null);
      (n1, Value.int 0);
      (n2, Value.int 0);
    ]

let stack_cells = [ Treiber.top_cell; n1; n2 ]

let hide_spec : Prog.hide_spec =
  {
    hs_priv = pv_label;
    hs_conc = Treiber.concurroid tb_label;
    hs_decor =
      Heap.restrict (fun p -> List.exists (Ptr.equal p) [ Treiber.top_cell ]);
    hs_init = Aux.hist Hist.empty;
    hs_jaux = Aux.Unit;
  }

(* The sequential stack: push 1, push 2, then pop three times, all under
   [hide].  LIFO says we must see Some 2, Some 1, None. *)
let seq_stack_prog : (int option * int option * int option) Prog.t =
  let open Prog in
  hide hide_spec
    (let* () = Treiber.push tb_label pv_label n1 1 in
     let* () = Treiber.push tb_label pv_label n2 2 in
     let* a = Treiber.pop tb_label in
     let* b = Treiber.pop tb_label in
     let* c = Treiber.pop tb_label in
     ret (a, b, c))

let seq_stack_spec : (int option * int option * int option) Spec.t =
  Spec.make ~name:"seq_stack (hide)"
    ~pre:(fun st ->
      match Aux.as_heap (State.self pv_label st) with
      | Some h ->
        List.for_all (fun p -> Heap.mem p h) stack_cells
        && (Heap.find Treiber.top_cell h = Some (Value.ptr Ptr.null))
      | None -> false)
    ~post:(fun (a, b, c) i f ->
      a = Some 2 && b = Some 1 && c = None
      &&
      (* the whole structure returns to the private heap *)
      match
        (Aux.as_heap (State.self pv_label i), Aux.as_heap (State.self pv_label f))
      with
      | Some hi, Some hf -> Ptr.Set.equal (Heap.dom_set hi) (Heap.dom_set hf)
      | _ -> false)

(* Producer/consumer: the producer pushes 1 then 2; the consumer pops
   (blocking) twice.  Under hide, the produced multiset is consumed. *)
let producer : unit Prog.t =
  let open Prog in
  let* () = Treiber.push tb_label pv_label n1 1 in
  Treiber.push tb_label pv_label n2 2

let consumer : (int * int) Prog.t =
  let open Prog in
  let* a = Treiber.pop_wait tb_label in
  let* b = Treiber.pop_wait tb_label in
  ret (a, b)

let prod_cons_prog : (unit * (int * int)) Prog.t =
  Prog.hide hide_spec
    (Prog.par_split
       (Prog.split_cells ~pv:pv_label ~to_left:[ n1; n2 ] ~to_right:[])
       producer consumer)

let prod_cons_spec : (unit * (int * int)) Spec.t =
  Spec.make ~name:"producer/consumer"
    ~pre:(Spec.pre seq_stack_spec)
    ~post:(fun ((), (a, b)) _i _f -> List.sort Int.compare [ a; b ] = [ 1; 2 ])

(* Verification drivers: closed world (that is the point of [hide]); the
   ambient world is just Priv. *)

let world () =
  World.of_list
    [
      Priv.make
        ~enum:(fun () ->
          [
            Slice.make
              ~self:(Aux.heap initial_priv_heap)
              ~joint:Heap.empty ~other:(Aux.heap Heap.empty);
          ])
        pv_label;
    ]

let init_states () =
  [
    State.singleton pv_label
      (Slice.make
         ~self:(Aux.heap initial_priv_heap)
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty));
  ]

let check ?(fuel = 40) ?(max_outcomes = 400_000) prog spec =
  Verify.check_triple ~fuel ~max_outcomes ~interference:false ~world:(world ())
    ~init:(init_states ()) prog spec

let verify_seq ?fuel ?max_outcomes () =
  check ?fuel ?max_outcomes seq_stack_prog seq_stack_spec

let verify_prod_cons ?fuel ?max_outcomes () =
  check ?fuel ?max_outcomes prod_cons_prog prod_cons_spec
(*!End*)
