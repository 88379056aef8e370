(* The concurrent spanning-tree construction of the paper's running
   example (Sections 2 and 3): the [SpanTree] concurroid, the [trymark],
   [read_child] and [nullify] atomic actions, the [span] procedure of
   Figure 3 with its spec [span_tp] of Figure 4, and the closed-world
   [span_root] obtained by hiding (Section 3.5).

   Source regions are tagged for the Table 1 line-count reproduction:
   Libs / Conc / Acts / Stab / Main. *)

open Fcsl_heap
open Fcsl_core
module Aux = Fcsl_pcm.Aux

(*!Libs*)
(* Graph-theory support specific to this proof: the bulk lives in
   [Fcsl_heap.Graph] (trees, fronts, maximality, subgraphs) and
   [Graph_catalog]. *)

let graph_of_slice s = Graph.of_heap (Slice.joint s)

let self_set s = Aux.as_set (Slice.self s)
let other_set s = Aux.as_set (Slice.other s)

(* The set of nodes freshly marked between two slices: self f minus
   self i. *)
let fresh_marks i f =
  match (self_set i, self_set f) with
  | Some si, Some sf when Ptr.Set.subset si sf -> Some (Ptr.Set.diff sf si)
  | _ -> None
(*!Conc*)

(* The SpanTree concurroid (Section 3.3), parametrised by its label.
   Coherence: the joint heap is graph-shaped, self/other are disjoint
   pointer sets, and a node is in self • other iff it is marked. *)

let coh s =
  match (graph_of_slice s, self_set s, other_set s) with
  | Some g, Some slf, Some oth ->
    Ptr.Set.is_empty (Ptr.Set.inter slf oth)
    && Ptr.Set.subset slf (Graph.dom_set g)
    && Ptr.Set.subset oth (Graph.dom_set g)
    && List.for_all
         (fun x ->
           Graph.mark g x = Ptr.Set.mem x (Ptr.Set.union slf oth))
         (Graph.dom g)
  | _ -> false

(* marknode_trans: physically mark an unmarked node and simultaneously
   add it to self. *)
let marknode_trans : Concurroid.transition =
  {
    tr_name = "marknode";
    tr_external = false;
    tr_step =
      (fun s ->
        match (graph_of_slice s, self_set s) with
        | Some g, Some slf ->
          Graph.unmarked_nodes g
          |> List.map (fun x ->
                 Slice.make
                   ~self:(Aux.set (Ptr.Set.add x slf))
                   ~joint:(Graph.to_heap (Graph.mark_node g x))
                   ~other:(Slice.other s))
        | _ -> []);
  }

(* nullify_trans: a thread that owns the marking of [x] may sever one of
   its out-edges. *)
let nullify_trans : Concurroid.transition =
  {
    tr_name = "nullify";
    tr_external = false;
    tr_step =
      (fun s ->
        match (graph_of_slice s, self_set s) with
        | Some g, Some slf ->
          Ptr.Set.elements slf
          |> List.concat_map (fun x ->
                 List.filter_map
                   (fun side ->
                     if Ptr.is_null (Graph.child g side x) then None
                     else
                       Some
                         (Slice.make ~self:(Slice.self s)
                            ~joint:(Graph.to_heap (Graph.null_edge g side x))
                            ~other:(Slice.other s)))
                   [ Graph.Left; Graph.Right ])
        | _ -> []);
  }

(* The concurroid, with the catalogue of small graphs as its law- and
   stability-checking universe. *)
let concurroid ?(max_nodes = 3) label =
  Concurroid.make ~label ~name:"SpanTree" ~coh
    ~transitions:[ marknode_trans; nullify_trans ]
    ~enum:(fun () -> Graph_catalog.all_slices ~max_nodes ())
    ()
(*!Acts*)

(* Atomic actions (Sections 2.2.2 and 3.4). *)

let slice_at sp st = State.find_exn sp st

(* trymark: erases to CAS on the node's cell; logically takes
   marknode_trans on success and idle on failure. *)
let trymark sp x : bool Action.t =
  Action.make ~name:(Fmt.str "trymark(%a)" Ptr.pp x)
    ~fp:(Footprint.cases sp)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s -> (
        match graph_of_slice s with
        | Some g -> Graph.mem x g
        | None -> false)
      | None -> false)
    ~step:(fun st ->
      let s = slice_at sp st in
      let g = Option.get (graph_of_slice s) in
      if Graph.mark g x then (false, st)
      else
        let slf = Option.get (self_set s) in
        let s' =
          Slice.make
            ~self:(Aux.set (Ptr.Set.add x slf))
            ~joint:(Graph.to_heap (Graph.mark_node g x))
            ~other:(Slice.other s)
        in
        (true, State.add sp s' st))
    ~phys:(fun st ->
      let s = slice_at sp st in
      let g = Option.get (graph_of_slice s) in
      let _, l, r = Graph.cont g x in
      Action.Cas
        {
          loc = x;
          expect = Value.node ~marked:false ~left:l ~right:r;
          replace = Value.node ~marked:true ~left:l ~right:r;
        })
    ()

(* read_child: erases to a read; logically idle.  Requires x ∈ self so
   the result is stable (nobody else may nullify x's edges). *)
let read_child sp x side : Ptr.t Action.t =
  Action.make ~name:(Fmt.str "read_child(%a,%a)" Ptr.pp x Graph.pp_side side)
    ~fp:(Footprint.reads sp)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s -> (
        match (graph_of_slice s, self_set s) with
        | Some g, Some slf -> Graph.mem x g && Ptr.Set.mem x slf
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = slice_at sp st in
      let g = Option.get (graph_of_slice s) in
      (Graph.child g side x, st))
    ~phys:(fun _ -> Action.Read x)
    ()

(* nullify: erases to a write of the node's cell; logically takes
   nullify_trans.  Requires x ∈ self. *)
let nullify sp x side : unit Action.t =
  Action.make ~name:(Fmt.str "nullify(%a,%a)" Ptr.pp x Graph.pp_side side)
    ~fp:(Footprint.writes sp)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s -> (
        match (graph_of_slice s, self_set s) with
        | Some g, Some slf -> Graph.mem x g && Ptr.Set.mem x slf
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = slice_at sp st in
      let g = Option.get (graph_of_slice s) in
      let s' = Slice.with_joint (Graph.to_heap (Graph.null_edge g side x)) s in
      ((), State.add sp s' st))
    ~phys:(fun st ->
      let s = slice_at sp st in
      let g = Option.get (graph_of_slice s) in
      let m, l, r = Graph.cont g x in
      let l, r =
        match side with
        | Graph.Left -> (Ptr.null, r)
        | Graph.Right -> (l, Ptr.null)
      in
      Action.Write (x, Value.node ~marked:m ~left:l ~right:r))
    ()
(*!Stab*)

(* Stability lemmas (Section 3.2's subgraph_steps and friends), packaged
   as named assertions whose stability the test suite checks over the
   SpanTree universe. *)

(* Membership in the joint graph is stable: interference never adds or
   removes nodes. *)
let assert_in_dom sp x st =
  match State.find sp st with
  | Some s -> (
    match graph_of_slice s with Some g -> Graph.mem x g | None -> false)
  | None -> false

(* Membership in self is stable: the environment cannot steal marks. *)
let assert_in_self sp x st =
  match State.find sp st with
  | Some s -> (
    match self_set s with Some slf -> Ptr.Set.mem x slf | None -> false)
  | None -> false

(* A marked node stays marked. *)
let assert_marked sp x st =
  match State.find sp st with
  | Some s -> (
    match graph_of_slice s with Some g -> Graph.mark g x | None -> false)
  | None -> false

(* Out-edges of a self-owned node are stable: only their owner nullifies
   them. *)
let assert_edges_of_owned sp x (l, r) st =
  match State.find sp st with
  | Some s -> (
    match (graph_of_slice s, self_set s) with
    | Some g, Some slf ->
      Ptr.Set.mem x slf
      && Ptr.equal (Graph.edgl g x) l
      && Ptr.equal (Graph.edgr g x) r
    | _ -> false)
  | None -> false

(* The subgraph_steps lemma: environment stepping only refines the graph
   (checked over env-step closures by the test suite). *)
let subgraph_steps_holds c s =
  match graph_of_slice s with
  | None -> true
  | Some g1 ->
    List.for_all
      (fun s' ->
        match graph_of_slice s' with
        | Some g2 -> Graph.subgraph g1 g2
        | None -> false)
      (Concurroid.env_steps_closure c s)
(*!Main*)

(* The span procedure of Figure 3. *)

let span sp (root : Ptr.t) : bool Prog.t =
  let open Prog in
  let body loop x =
    if Ptr.is_null x then ret false
    else
      let* b = act (trymark sp x) in
      if b then
        let* xl = act (read_child sp x Graph.Left) in
        let* xr = act (read_child sp x Graph.Right) in
        let* rs = par (loop xl) (loop xr) in
        let* () = if not (fst rs) then act (nullify sp x Graph.Left) else ret () in
        let* () = if not (snd rs) then act (nullify sp x Graph.Right) else ret () in
        ret true
      else ret false
  in
  (* [ffix] is opaque to the footprint spine; declare the envelope the
     body's actions establish (static analyses read it on trust). *)
  Prog.annot (Footprint.touches sp) (Prog.ffix body root)

(* The spec span_tp of Figure 4, as executable pre/post predicates. *)

(* The subgraph relation of Section 3.2, on full slices: node set fixed,
   self/other only grow, unmarked nodes untouched, edges only
   nullified. *)
let subjective_subgraph i f =
  match
    ( graph_of_slice i, graph_of_slice f,
      self_set i, self_set f, other_set i, other_set f )
  with
  | Some g1, Some g2, Some si, Some sf, Some oi, Some off ->
    Graph.subgraph g1 g2 && Ptr.Set.subset si sf && Ptr.Set.subset oi off
  | _ -> false

let span_spec sp (x : Ptr.t) : bool Spec.t =
  Spec.make
    ~name:(Fmt.str "span_tp(%a)" Ptr.pp x)
    ~pre:(fun st ->
      match State.find sp st with
      | Some s -> coh s && (Ptr.is_null x || assert_in_dom sp x st)
      | None -> false)
    ~post:(fun r st_i st_f ->
      match (State.find sp st_i, State.find sp st_f) with
      | Some i, Some f -> (
        subjective_subgraph i f
        &&
        match (graph_of_slice f, graph_of_slice i) with
        | Some g2, Some g1 -> (
          if r then
            (not (Ptr.is_null x))
            &&
            match (fresh_marks i f, self_set f, other_set f) with
            | Some t, Some sf, Some off ->
              Graph.tree g2 x t && Graph.maximal g2 t
              && Graph.front g1 t (Ptr.Set.union sf off)
            | _ -> false
          else
            (Ptr.is_null x || Graph.mark g2 x)
            &&
            match fresh_marks i f with
            | Some t -> Ptr.Set.is_empty t
            | None -> false)
        | _ -> false)
      | _ -> false)

(* The closed-world wrapper (Section 3.5): install a SpanTree concurroid
   over the whole private heap, run span, tear it down. *)

let span_root ~pv ~sp (x : Ptr.t) : bool Prog.t =
  let hs : Prog.hide_spec =
    {
      hs_priv = pv;
      hs_conc = concurroid sp;
      hs_decor = (fun h -> h); (* donate the whole private graph heap *)
      hs_init = Aux.set Ptr.Set.empty;
      hs_jaux = Aux.Unit;
    }
  in
  Prog.hide hs (span sp x)

(* span_root_tp: from a private, unmarked, connected-from-x graph heap,
   the final private heap is a spanning tree of it rooted at x. *)
let span_root_spec ~pv (x : Ptr.t) : bool Spec.t =
  Spec.make
    ~name:(Fmt.str "span_root_tp(%a)" Ptr.pp x)
    ~pre:(fun st ->
      match State.find pv st with
      | Some s -> (
        match Graph.of_heap (Priv.pv_self pv st) with
        | Some g1 ->
          Heap.is_empty (Slice.joint s)
          && Graph.mem x g1
          && List.for_all (fun y -> not (Graph.mark g1 y)) (Graph.dom g1)
          && Graph.connected g1 x
        | None -> false)
      | None -> false)
    ~post:(fun r st_i st_f ->
      match
        ( Graph.of_heap (Priv.pv_self pv st_i),
          Graph.of_heap (Priv.pv_self pv st_f) )
      with
      | Some g1, Some g2 ->
        r
        && Graph.spanning g1 g2 x (Graph.dom_set g2)
      | _ -> false)

(* Verification drivers. *)

let sp_label = Label.make "span"
let pv_label = Label.make "span_priv"

let world ?(max_nodes = 3) () = World.of_list [ concurroid ~max_nodes sp_label ]

(* Initial open-world states: every catalogue slice (partially marked
   graphs with arbitrary subjective splits). *)
let init_states ?(max_nodes = 3) () =
  List.map
    (fun s -> State.singleton sp_label s)
    (Graph_catalog.all_slices ~max_nodes ())

(* Check span_tp for every root choice over every catalogue state,
   exhaustively, under full interference. *)
let verify_span ?(max_nodes = 3) ?(fuel = 24) ?(max_outcomes = 60_000) () :
    Verify.report list =
  let w = world ~max_nodes () in
  let states = init_states ~max_nodes () in
  let roots =
    Ptr.null :: List.map (fun n -> Ptr.of_int n) [ 1; 2; 3 ]
  in
  List.map
    (fun x ->
      Verify.check_triple ~fuel ~max_outcomes ~world:w ~init:states
        (span sp_label x) (span_spec sp_label x))
    roots

(* Check span_root_tp on the unmarked catalogue graphs (closed world:
   only Priv is ambient; interference cannot touch the hidden graph). *)
let verify_span_root ?(max_nodes = 3) ?(fuel = 32) ?(max_outcomes = 120_000) ()
    : Verify.report list =
  let priv = Priv.make pv_label in
  let w = World.of_list [ priv ] in
  List.filter_map
    (fun (name, g) ->
      let x = Ptr.of_int 1 in
      if not (Graph.connected g x) then None
      else
        let st =
          State.singleton pv_label
            (Slice.make
               ~self:(Aux.heap (Graph.to_heap g))
               ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
        in
        let report =
          Verify.check_triple ~fuel ~max_outcomes ~interference:false ~world:w
            ~init:[ st ]
            (span_root ~pv:pv_label ~sp:sp_label x)
            (span_root_spec ~pv:pv_label x)
        in
        Some { report with Verify.spec_name = report.Verify.spec_name ^ " on " ^ name })
    (Graph_catalog.initial_graphs ~max_nodes ())
(*!End*)
