(* Core framework: subjective states, concurroid laws, action laws,
   the interleaving scheduler, and environment interference. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let p = Ptr.of_int

(* Slices and states. *)

let test_slice_transpose () =
  let s =
    Slice.make ~self:(Aux.nat 1) ~joint:Heap.empty ~other:(Aux.nat 2)
  in
  let t = Slice.transpose s in
  check "self<->other" true
    (Aux.equal (Slice.self t) (Aux.nat 2) && Aux.equal (Slice.other t) (Aux.nat 1));
  check "involution" true (Slice.equal (Slice.transpose t) s)

let test_slice_validity () =
  let s = Slice.make ~self:Aux.own ~joint:Heap.empty ~other:Aux.own in
  check "own/own invalid" false (Slice.valid s);
  let s' = Slice.with_other Aux.not_own s in
  check "own/notown valid" true (Slice.valid s');
  check "combined" true (Aux.equal (Slice.combined_exn s') Aux.own)

let test_slice_realign () =
  let s =
    Slice.make ~self:(Aux.nat 3) ~joint:Heap.empty ~other:(Aux.nat 1)
  in
  check "same total ok" true
    (Option.is_some (Slice.realign s ~self:(Aux.nat 0) ~other:(Aux.nat 4)));
  check "different total rejected" false
    (Option.is_some (Slice.realign s ~self:(Aux.nat 0) ~other:(Aux.nat 5)))

let test_state_erasure () =
  let l1 = Label.make "t1" and l2 = Label.make "t2" in
  let st =
    State.empty
    |> State.add l1
         (Slice.make
            ~self:(Aux.heap (Heap.singleton (p 1) Value.unit))
            ~joint:(Heap.singleton (p 2) Value.unit)
            ~other:(Aux.heap Heap.empty))
    |> State.add l2
         (Slice.make
            ~self:(Aux.set_of_list [ p 2 ])
            ~joint:(Heap.singleton (p 3) Value.unit)
            ~other:Aux.Unit)
  in
  let h = State.erase_exn st in
  checki "erased cells" 3 (Heap.cardinal h);
  (* A colliding joint makes erasure undefined. *)
  let bad = State.with_joint l2 (Heap.singleton (p 1) Value.unit) st in
  check "collision detected" true (State.erase bad = None)

(* Concurroid laws: both SpanTree and Priv must satisfy the metatheory
   checks over their enumerations. *)

let test_spantree_laws () =
  let c = Span.concurroid (Label.make "law_span") in
  let violations = Concurroid.check_laws c in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (Fmt.str "%a" Concurroid.pp_violation) violations)

let test_priv_laws () =
  let c = Priv.make (Label.make "law_priv") in
  let violations = Concurroid.check_laws c in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (Fmt.str "%a" Concurroid.pp_violation) violations)

(* A deliberately broken concurroid: its transition steals from other.
   The law checker must refute it. *)
let test_broken_concurroid_refuted () =
  let l = Label.make "broken" in
  let thief : Concurroid.transition =
    {
      tr_name = "steal";
      tr_external = false;
      tr_step =
        (fun s ->
          match Aux.as_nat (Slice.other s) with
          | Some n when n > 0 ->
            [
              Slice.make
                ~self:(Aux.join_exn (Slice.self s) (Aux.nat 1))
                ~joint:(Slice.joint s)
                ~other:(Aux.nat (n - 1));
            ]
          | _ -> []);
    }
  in
  let c =
    Concurroid.make ~label:l ~name:"Thief"
      ~coh:(fun s ->
        Heap.is_empty (Slice.joint s)
        && Option.is_some (Aux.as_nat (Slice.self s))
        && Option.is_some (Aux.as_nat (Slice.other s)))
      ~transitions:[ thief ]
      ~enum:(fun () ->
        [
          Slice.make ~self:(Aux.nat 1) ~joint:Heap.empty ~other:(Aux.nat 2);
        ])
      ()
  in
  check "other-fixity violated" false (Concurroid.well_formed c)

(* Action laws for the span actions over the catalogue universe. *)

let span_world_and_states () =
  let l = Label.make "act_span" in
  let c = Span.concurroid l in
  let w = World.of_list [ c ] in
  let states =
    List.map (fun s -> State.singleton l s) (Concurroid.enum c)
  in
  (l, w, states)

let test_action_laws () =
  let l, w, states = span_world_and_states () in
  let actions =
    [
      ("trymark", fun x -> Action.map (fun _ -> ()) (Span.trymark l x));
      ("nullify-l", fun x -> Span.nullify l x Graph.Left);
      ( "read_child",
        fun x -> Action.map (fun _ -> ()) (Span.read_child l x Graph.Left) );
    ]
  in
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun n ->
          let violations = Action.check_laws w (mk (p n)) ~states in
          Alcotest.(check (list string))
            (Fmt.str "%s(%d) laws" name n)
            []
            (List.map (Fmt.str "%a" Action.pp_violation) violations))
        [ 1; 2; 3 ])
    actions

(* A broken action: writes without taking a transition (nullifies an
   edge of a node it does not own).  Law checking must refute it. *)
let test_rogue_action_refuted () =
  let l, w, states = span_world_and_states () in
  let rogue : unit Action.t =
    Action.make ~name:(fun () -> "rogue_nullify")
      ~safe:(fun st ->
        match State.find l st with
        | Some s -> (
          match Graph.of_heap (Slice.joint s) with
          | Some g ->
            Graph.mem (p 1) g && not (Ptr.is_null (Graph.edgl g (p 1)))
          | None -> false)
        | None -> false)
      ~step:(fun st ->
        let s = State.find_exn l st in
        let g = Graph.of_heap_exn (Slice.joint s) in
        ( (),
          State.add l
            (Slice.with_joint (Graph.to_heap (Graph.null_edge g Graph.Left (p 1))) s)
            st ))
      ~phys:(fun st ->
        let s = State.find_exn l st in
        let g = Graph.of_heap_exn (Slice.joint s) in
        let m, _, r = Graph.cont g (p 1) in
        Action.Write (p 1, Value.node ~marked:m ~left:Ptr.null ~right:r))
      ()
  in
  check "rogue action refuted" true (Action.check_laws w rogue ~states <> [])

(* Scheduler: deterministic sequential execution. *)

let seq_world () =
  let l = Label.make "sched_span" in
  let c = Span.concurroid l in
  (l, World.of_list [ c ])

let test_sched_sequential () =
  let l, w = seq_world () in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton l
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  let prog =
    let open Prog in
    let* b = act (Span.trymark l (p 1)) in
    let* b' = act (Span.trymark l (p 1)) in
    ret (b, b')
  in
  let outs, complete =
    Sched.explore ~interference:false ~f:(fun acc o -> o :: acc) ~init:[]
      genv mine prog
  in
  check "complete" true complete;
  checki "single outcome" 1 (List.length outs);
  match outs with
  | [ Sched.Finished ((true, false), final) ] ->
    check "node marked and owned" true
      (Span.assert_in_self l (p 1) final)
  | _ -> Alcotest.fail "unexpected outcomes"

(* Parallel marking race: exactly one of two threads wins the CAS. *)
let test_sched_race () =
  let l, w = seq_world () in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton l
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  let prog =
    Prog.par (Prog.act (Span.trymark l (p 1))) (Prog.act (Span.trymark l (p 1)))
  in
  let outs, complete =
    Sched.explore ~interference:false ~f:(fun acc o -> o :: acc) ~init:[]
      genv mine prog
  in
  check "complete" true complete;
  checki "two interleavings" 2 (List.length outs);
  List.iter
    (fun out ->
      match out with
      | Sched.Finished ((a, b), final) ->
        check "exactly one winner" true (a <> b);
        check "mark owned by root after join" true
          (Span.assert_in_self l (p 1) final)
      | _ -> Alcotest.fail "unexpected outcome")
    outs

(* Interference: with an environment allowed to mark, a single trymark
   may lose; without interference it always wins. *)
let test_interference_changes_outcomes () =
  let l, w = seq_world () in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton l
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  let prog = Prog.act (Span.trymark l (p 1)) in
  let results interference =
    let interfere = if interference then World.labels w else [] in
    let genv, mine = Sched.genv_of_state ~interfere w st in
    let results, _ =
      Sched.explore ~interference
        ~f:(fun acc -> function Sched.Finished (r, _) -> r :: acc | _ -> acc)
        ~init:[] genv mine prog
    in
    List.sort_uniq Stdlib.compare results
  in
  Alcotest.(check (list bool)) "no interference: wins" [ true ] (results false);
  Alcotest.(check (list bool))
    "interference: both outcomes" [ false; true ] (results true)

(* Hide: installation carves the private heap; uninstallation returns
   it; outside interference cannot touch the hidden label. *)
let test_hide_roundtrip () =
  let pv = Label.make "hide_priv" in
  let sp = Label.make "hide_span" in
  let w = World.of_list [ Priv.make pv ] in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let genv, mine = Sched.genv_of_state ~interfere:[ pv ] w st in
  let prog = Span.span_root ~pv ~sp (p 1) in
  let outs, complete =
    Sched.explore ~f:(fun acc o -> o :: acc) ~init:[] genv mine prog
  in
  check "complete" true complete;
  check "all finished, heap returned marked" true
    (outs <> []
    && List.for_all
         (function
           | Sched.Finished (true, final) -> (
             match Graph.of_heap (Priv.pv_self pv final) with
             | Some g' -> Graph.mark g' (p 1)
             | None -> false)
           | _ -> false)
         outs)

let suite =
  [
    Alcotest.test_case "slice transpose" `Quick test_slice_transpose;
    Alcotest.test_case "slice validity" `Quick test_slice_validity;
    Alcotest.test_case "slice realign" `Quick test_slice_realign;
    Alcotest.test_case "state erasure" `Quick test_state_erasure;
    Alcotest.test_case "SpanTree laws" `Quick test_spantree_laws;
    Alcotest.test_case "Priv laws" `Quick test_priv_laws;
    Alcotest.test_case "broken concurroid refuted" `Quick
      test_broken_concurroid_refuted;
    Alcotest.test_case "span action laws" `Quick test_action_laws;
    Alcotest.test_case "rogue action refuted" `Quick test_rogue_action_refuted;
    Alcotest.test_case "sequential scheduling" `Quick test_sched_sequential;
    Alcotest.test_case "parallel CAS race" `Quick test_sched_race;
    Alcotest.test_case "interference changes outcomes" `Quick
      test_interference_changes_outcomes;
    Alcotest.test_case "hide roundtrip" `Quick test_hide_roundtrip;
  ]
