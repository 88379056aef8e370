(* The spanning-tree case study: stability lemmas, the span_tp and
   span_root_tp triples (Figures 1-4), and failure injection — broken
   variants of span must be refuted by the verifier. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux

let check = Alcotest.(check bool)
let p = Ptr.of_int

let sp = Label.make "ts_span"
let conc = Span.concurroid sp
let world = World.of_list [ conc ]

let states () =
  List.map (fun s -> State.singleton sp s) (Concurroid.enum conc)

(* Stability of the assertions underpinning span_tp (Section 3.2). *)

let stable name pred =
  Alcotest.test_case name `Quick (fun () ->
      let r = Stability.check world ~states:(states ()) pred in
      check name true (Stability.is_stable r))

let unstable name pred =
  Alcotest.test_case name `Quick (fun () ->
      let r = Stability.check world ~states:(states ()) pred in
      check name false (Stability.is_stable r))

let stability_tests =
  [
    stable "dom membership stable" (Span.assert_in_dom sp (p 1));
    stable "self membership stable" (Span.assert_in_self sp (p 1));
    stable "markedness stable" (Span.assert_marked sp (p 1));
    stable "edges of owned node stable"
      (Span.assert_edges_of_owned sp (p 1) (p 2, Ptr.null));
    (* Negative control: unmarkedness is NOT stable — the environment
       may mark the node.  The checker must find the counterexample. *)
    unstable "unmarkedness is unstable" (fun st ->
        Span.assert_in_dom sp (p 1) st && not (Span.assert_marked sp (p 1) st));
    (* Negative control: edges of an unowned node are unstable. *)
    unstable "edges of unowned node unstable" (fun st ->
        match State.find sp st with
        | Some s -> (
          match Graph.of_heap (Slice.joint s) with
          | Some g -> Graph.mem (p 1) g && Ptr.equal (Graph.edgl g (p 1)) (p 2)
          | None -> false)
        | None -> false);
  ]

(* The subgraph_steps lemma over env-step closures. *)
let test_subgraph_steps () =
  List.iter
    (fun st ->
      match State.find sp st with
      | Some s when Concurroid.coh conc s ->
        check "subgraph_steps" true (Span.subgraph_steps_holds conc s)
      | _ -> ())
    (states ())

(* The headline triples.  (Exhaustive; the 2-node universe keeps the
   full-interference check quick, 3-node runs in the slow suite and the
   bench harness.) *)

let test_span_tp () =
  List.iter
    (fun report ->
      check (Fmt.str "%a" Verify.pp_report report) true (Verify.ok report))
    (Span.verify_span ~max_nodes:2 ())

let test_span_root_tp () =
  List.iter
    (fun report ->
      check (Fmt.str "%a" Verify.pp_report report) true (Verify.ok report))
    (Span.verify_span_root ~max_nodes:3 ())

(* Failure injection 1: span without the CAS — it marks unconditionally
   (lost-update bug).  The span_tp triple must be refuted: under
   interference or racing children, the thread claims nodes it did not
   mark. *)

let blind_mark sp x : bool Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "blind_mark(%a)" Ptr.pp x)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s -> (
        match Graph.of_heap (Slice.joint s) with
        | Some g -> Graph.mem x g
        | None -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn sp st in
      let g = Graph.of_heap_exn (Slice.joint s) in
      let slf = Option.get (Aux.as_set (Slice.self s)) in
      if Ptr.Set.mem x slf then (true, st)
      else
        (* claims the node into self even if someone else marked it *)
        let s' =
          Slice.make
            ~self:(Aux.set (Ptr.Set.add x slf))
            ~joint:(Graph.to_heap (Graph.mark_node g x))
            ~other:(Slice.other s)
        in
        (true, State.add sp s' st))
    ~phys:(fun st ->
      let s = State.find_exn sp st in
      let g = Graph.of_heap_exn (Slice.joint s) in
      let _, l, r = Graph.cont g x in
      Action.Write (x, Value.node ~marked:true ~left:l ~right:r))
    ()

let test_blind_mark_refuted () =
  (* The broken action itself violates the transition-correspondence /
     coherence laws: marking an already-marked node into self collides
     with the owner. *)
  let violations =
    Action.check_laws world
      (Action.map (fun _ -> ()) (blind_mark sp (p 1)))
      ~states:(states ())
  in
  check "blind_mark violates action laws" true (violations <> [])

(* Failure injection 2: span that skips the nullify step.  The result
   claims to be a maximal tree but redundant edges survive; span_tp's
   postcondition must catch it on a graph with a redundant edge. *)

let span_no_nullify x : bool Prog.t =
  let open Prog in
  let body loop y =
    if Ptr.is_null y then ret false
    else
      let* b = act (Span.trymark sp y) in
      if b then
        let* yl = act (Span.read_child sp y Graph.Left) in
        let* yr = act (Span.read_child sp y Graph.Right) in
        let* _ = par (loop yl) (loop yr) in
        ret true
      else ret false
  in
  Prog.ffix body x

let test_no_nullify_refuted () =
  let init = states () in
  let report =
    Verify.check_triple ~fuel:24 ~world ~init (span_no_nullify (p 1))
      (Span.span_spec sp (p 1))
  in
  check "missing nullify refuted" false (Verify.ok report)

(* Failure injection 3: nullifying the wrong side breaks the tree/front
   structure. *)
let span_wrong_side x : bool Prog.t =
  let open Prog in
  let body loop y =
    if Ptr.is_null y then ret false
    else
      let* b = act (Span.trymark sp y) in
      if b then
        let* yl = act (Span.read_child sp y Graph.Left) in
        let* yr = act (Span.read_child sp y Graph.Right) in
        let* rs = par (loop yl) (loop yr) in
        (* sides swapped below *)
        let* () = if not (fst rs) then act (Span.nullify sp y Graph.Right) else ret () in
        let* () = if not (snd rs) then act (Span.nullify sp y Graph.Left) else ret () in
        ret true
      else ret false
  in
  Prog.ffix body x

let test_wrong_side_refuted () =
  let init = states () in
  let report =
    Verify.check_triple ~fuel:24 ~world ~init (span_wrong_side (p 1))
      (Span.span_spec sp (p 1))
  in
  check "swapped nullify refuted" false (Verify.ok report)

(* Determinised Figure 2 replay: the exact schedule of the paper's
   figure yields the exact final tree of stage (6). *)
let test_fig2_replay () =
  let pv = Label.make "fig2_priv" in
  let sp2 = Label.make "fig2_span" in
  let w = World.of_list [ Priv.make pv ] in
  let g0 = Graph_catalog.fig2_graph () in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g0))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  match
    Sched.run_with_chooser
      ~choose:(fun ~step:_ _ -> 0)
      genv mine
      (Span.span_root ~pv ~sp:sp2 (p 1))
  with
  | Sched.Finished (true, final) ->
    let g' = Graph.of_heap_exn (Priv.pv_self pv final) in
    check "spanning" true (Graph.spanning g0 g' (p 1) (Graph.dom_set g'));
    check "all marked" true
      (List.for_all (fun x -> Graph.mark g' x) (Graph.dom g'))
  | _ -> Alcotest.fail "fig2 replay did not finish"

(* Random large graphs: span always yields a spanning tree (randomized
   schedules, no interference: the closed-world setting). *)
let prop_random_spanning =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"span spans random connected graphs"
       QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 10))
       (fun (seed, n) ->
         let rng = Random.State.make [| seed |] in
         let g0 = Graph_catalog.random_connected_graph ~rng n in
         let pv = Label.make "rand_priv" and sp' = Label.make "rand_span" in
         let w = World.of_list [ Priv.make pv ] in
         let st =
           State.singleton pv
             (Slice.make
                ~self:(Aux.heap (Graph.to_heap g0))
                ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
         in
         let genv, mine = Sched.genv_of_state w st in
         match
           Sched.run_random ~seed ~fuel:100_000 genv mine
             (Span.span_root ~pv ~sp:sp' (p 1))
         with
         | Sched.Finished (true, final) ->
           let g' = Graph.of_heap_exn (Priv.pv_self pv final) in
           Graph.spanning g0 g' (p 1) (Graph.dom_set g')
         | _ -> false))

let suite =
  stability_tests
  @ [
      Alcotest.test_case "subgraph_steps lemma" `Quick test_subgraph_steps;
      Alcotest.test_case "span_tp verified (2-node exhaustive)" `Slow
        test_span_tp;
      Alcotest.test_case "span_root_tp verified (3-node exhaustive)" `Slow
        test_span_root_tp;
      Alcotest.test_case "injected: blind mark refuted" `Quick
        test_blind_mark_refuted;
      Alcotest.test_case "injected: missing nullify refuted" `Slow
        test_no_nullify_refuted;
      Alcotest.test_case "injected: swapped nullify refuted" `Slow
        test_wrong_side_refuted;
      Alcotest.test_case "Figure 2 replay" `Quick test_fig2_replay;
      prop_random_spanning;
    ]
