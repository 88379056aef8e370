(* Denotational action trees and linearizability: the tree unfolding
   agrees with the scheduler (adequacy), tree structure is as expected
   on known programs, and history legality / linearizable-multiset
   checks behave on stack and counter objects. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let p = Ptr.of_int

let span_setup () =
  let sp = Label.make "sem_span" in
  let conc = Span.concurroid sp in
  let w = World.of_list [ conc ] in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton sp
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  (sp, w, st)

(* A race of two trymarks: the denotation is a two-branch node, each
   branch a single further action, four leaves. *)
let test_tree_structure () =
  let sp, w, st = span_setup () in
  let genv, mine = Sched.genv_of_state w st in
  let prog =
    Prog.par (Prog.act (Span.trymark sp (p 1))) (Prog.act (Span.trymark sp (p 1)))
  in
  let tree = Tree.denote genv mine prog in
  checki "two schedules, one step each" 2
    (match tree with Tree.Node cs -> List.length cs | Tree.Leaf _ -> 0);
  checki "depth = number of actions" 2 (Tree.depth tree);
  checki "two terminal leaves" 2 (List.length (Tree.outcomes tree));
  let traces = Tree.traces tree in
  check "traces record the CAS names" true
    (List.for_all
       (fun (path, _) ->
         List.length path = 2
         && List.for_all (fun n -> n = "trymark(x1)") path)
       traces)

(* Adequacy: the tree's leaf outcomes equal the scheduler's outcomes,
   for a batch of programs. *)
let test_adequacy () =
  let sp, w, st = span_setup () in
  let run prog =
    let genv, mine = Sched.genv_of_state w st in
    let tree = Tree.denote ~fuel:16 genv mine prog in
    let genv, mine = Sched.genv_of_state w st in
    let outs, complete =
      Sched.explore ~fuel:16 ~interference:false ~f:(fun acc o -> o :: acc)
        ~init:[] genv mine prog
    in
    check "complete" true complete;
    check "adequate" true
      (Tree.agrees_with_explore ~result_equal:( = ) tree (List.rev outs))
  in
  run (Prog.act (Span.trymark sp (p 1)));
  run
    (Prog.par
       (Prog.act (Span.trymark sp (p 1)))
       (Prog.act (Span.trymark sp (p 1))));
  run (Span.span sp (p 1))

(* Adequacy under interference. *)
let test_adequacy_interference () =
  let sp, w, st = span_setup () in
  let prog = Prog.act (Span.trymark sp (p 1)) in
  let interfere = World.labels w in
  let genv, mine = Sched.genv_of_state ~interfere w st in
  let tree =
    Tree.denote ~fuel:8 ~interference:true ~env_budget:1 genv mine prog
  in
  let genv, mine = Sched.genv_of_state ~interfere w st in
  let outs, _ =
    Sched.explore ~fuel:8 ~interference:true ~env_budget:1
      ~f:(fun acc o -> o :: acc)
      ~init:[] genv mine prog
  in
  check "adequate under interference" true
    (Tree.agrees_with_explore ~result_equal:( = ) tree (List.rev outs));
  (* interference adds branches: more than the lone self step *)
  check "env branches present" true (Tree.size tree > 3)

(* Linearizability. *)

let test_replay_legal () =
  let h =
    Hist.empty
    |> Hist.add 1
         (Hist.entry ~arg:(Value.int 3)
            ~state:(Value.Pair (Value.int 3, Value.Unit))
            "push")
    |> Hist.add 2
         (Hist.entry ~res:(Value.int 3) ~state:Value.Unit "pop")
  in
  check "legal stack history" true (Linearize.legal Linearize.stack_spec h);
  let bad =
    Hist.add 1 (Hist.entry ~res:(Value.int 9) ~state:Value.Unit "pop") Hist.empty
  in
  check "pop from empty illegal" false
    (Linearize.legal Linearize.stack_spec bad)

let test_linearizable_multiset () =
  (* pop-before-push observations linearize by reordering *)
  let obs =
    [
      ("pop", Value.unit, Value.int 1);
      ("push", Value.int 1, Value.unit);
    ]
  in
  check "reorderable" true
    (Linearize.linearizable_multiset Linearize.stack_spec obs);
  (* two pops of the same single push cannot linearize *)
  let bad =
    [
      ("push", Value.int 1, Value.unit);
      ("pop", Value.unit, Value.int 1);
      ("pop", Value.unit, Value.int 1);
    ]
  in
  check "double pop rejected" false
    (Linearize.linearizable_multiset Linearize.stack_spec bad)

(* Every Treiber history reached by random execution is legal for the
   sequential stack spec (modulo the recorded states). *)
let prop_treiber_hists_legal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"random Treiber histories linearize"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let w = Treiber.world () in
         let init = Treiber.init_states () in
         let st = List.nth init (seed mod List.length init) in
         match Aux.as_heap (State.self Treiber.pv_label st) with
         | Some h when Heap.mem Treiber.node1 h ->
           let genv, mine = Sched.genv_of_state w st in
           let prog =
             Prog.seq
               (Treiber.push Treiber.tb_label Treiber.pv_label Treiber.node1 1)
               (Treiber.pop Treiber.tb_label)
           in
           (match Sched.run_random ~seed genv mine prog with
           | Sched.Finished (_, final) ->
             let hs = Treiber.self_hist Treiber.tb_label final in
             Linearize.linearizable_multiset Linearize.stack_spec
               (Linearize.observations hs)
           | Sched.Crashed _ -> false
           | Sched.Diverged -> true)
         | _ -> true))

let test_counter_spec () =
  check "counter runs" true
    (Linearize.linearizable_multiset Linearize.counter_spec
       [
         ("incr", Value.int 1, Value.int 0);
         ("incr", Value.int 1, Value.int 1);
         ("read", Value.unit, Value.int 2);
       ]);
  check "wrong read rejected" false
    (Linearize.linearizable_multiset Linearize.counter_spec
       [ ("incr", Value.int 1, Value.int 0); ("read", Value.unit, Value.int 5) ])

let suite =
  [
    Alcotest.test_case "tree structure" `Quick test_tree_structure;
    Alcotest.test_case "adequacy (tree vs scheduler)" `Quick test_adequacy;
    Alcotest.test_case "adequacy under interference" `Quick
      test_adequacy_interference;
    Alcotest.test_case "history replay" `Quick test_replay_legal;
    Alcotest.test_case "linearizable multisets" `Quick
      test_linearizable_multiset;
    prop_treiber_hists_legal;
    Alcotest.test_case "counter object" `Quick test_counter_spec;
  ]
