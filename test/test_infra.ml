(* Infrastructure edge cases: worlds, contributions, hide failure modes,
   fork-split failures, the randomized checker, pointer supplies, and
   counterexample traces. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux

let check = Alcotest.(check bool)
let p = Ptr.of_int

let contains s needle =
  let n = String.length needle and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* Ptr supply and edge cases. *)

let test_ptr () =
  let s = Ptr.Supply.create () in
  let a = Ptr.Supply.fresh s and b = Ptr.Supply.fresh s in
  check "fresh distinct" false (Ptr.equal a b);
  check "never null" true (not (Ptr.is_null a) && not (Ptr.is_null b));
  Alcotest.(check int) "fresh_many" 5 (List.length (Ptr.Supply.fresh_many s 5));
  check "of_int negative rejected" true
    (try
       ignore (Ptr.of_int (-1));
       false
     with Invalid_argument _ -> true);
  check "null printable" true (String.equal (Ptr.to_string Ptr.null) "null")

(* World construction. *)

let test_world () =
  let l = Label.make "ti_span" in
  let c = Span.concurroid l in
  check "duplicate labels rejected" true
    (try
       ignore (World.of_list [ c; c ]);
       false
     with Invalid_argument _ -> true);
  let w = World.of_list [ c ] in
  check "find" true (Option.is_some (World.find w l));
  check "mem other" false (World.mem w (Label.make "ti_none"));
  (* a state with an extra label is incoherent for the world *)
  let good = State.singleton l (List.hd (Concurroid.enum c)) in
  check "coh ok" true (World.coh w good);
  let extra =
    State.add (Label.make "ti_extra") Slice.empty good
  in
  check "extra label rejected" false (World.coh w extra);
  check "missing label rejected" false (World.coh w State.empty)

(* Contributions. *)

let test_contrib () =
  let l1 = Label.make "ti_l1" and l2 = Label.make "ti_l2" in
  let c1 = Contrib.of_list [ (l1, Aux.nat 2) ] in
  let c2 = Contrib.of_list [ (l1, Aux.nat 3); (l2, Aux.own) ] in
  let j = Option.get (Contrib.join c1 c2) in
  check "pointwise join" true (Aux.equal (Contrib.get l1 j) (Aux.nat 5));
  check "absent label = unit" true (Aux.is_unit (Contrib.get l1 Contrib.empty));
  check "own+own incompatible" true
    (Contrib.join (Contrib.of_list [ (l2, Aux.own) ]) c2 = None);
  check "is_empty on units" true
    (Contrib.is_empty (Contrib.of_list [ (l1, Aux.nat 0) ]))

(* Hide failure modes: each is a crash with a reported reason, not a
   silent wrong answer. *)

let hide_crash_reason prog st w =
  let genv, mine = Sched.genv_of_state w st in
  let first_crash, _ =
    Sched.explore ~interference:false
      ~f:(fun acc o ->
        match (acc, o) with
        | None, Sched.Crashed c -> Some (Crash.message c)
        | _ -> acc)
      ~init:None genv mine prog
  in
  first_crash

let test_hide_bad_decoration () =
  let pv = Label.make "ti_priv1" in
  let sp = Label.make "ti_hspan1" in
  let w = World.of_list [ Priv.make pv ] in
  let g = Graph_catalog.graph_of [ (p 1, Ptr.null, Ptr.null) ] in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  (* decoration demands a cell the private heap does not have *)
  let hs : Prog.hide_spec =
    {
      hs_priv = pv;
      hs_conc = Span.concurroid sp;
      hs_decor = (fun _ -> Heap.singleton (p 99) Value.unit);
      hs_init = Aux.set Ptr.Set.empty;
      hs_jaux = Aux.Unit;
    }
  in
  match hide_crash_reason (Prog.hide hs (Prog.ret ())) st w with
  | Some msg ->
    check "reason mentions decoration" true
      (String.length msg > 0)
  | None -> Alcotest.fail "bad decoration not caught"

let test_hide_incoherent_init () =
  let pv = Label.make "ti_priv2" in
  let sp = Label.make "ti_hspan2" in
  let w = World.of_list [ Priv.make pv ] in
  (* donate a non-graph heap to the SpanTree concurroid *)
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Heap.singleton (p 1) (Value.int 7)))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let hs : Prog.hide_spec =
    {
      hs_priv = pv;
      hs_conc = Span.concurroid sp;
      hs_decor = Fun.id;
      hs_init = Aux.set Ptr.Set.empty;
      hs_jaux = Aux.Unit;
    }
  in
  match hide_crash_reason (Prog.hide hs (Prog.ret ())) st w with
  | Some msg -> check "incoherent install caught" true (String.length msg > 0)
  | None -> Alcotest.fail "incoherent install not caught"

(* Fork-split failure: requesting a cell the parent does not hold. *)
let test_par_split_failure () =
  let pv = Label.make "ti_priv3" in
  let w = World.of_list [ Priv.make pv ] in
  let st =
    State.singleton pv
      (Slice.make ~self:(Aux.heap Heap.empty) ~joint:Heap.empty
         ~other:(Aux.heap Heap.empty))
  in
  let prog =
    Prog.par_split
      (Prog.split_cells ~pv ~to_left:[ p 42 ] ~to_right:[])
      (Prog.ret ()) (Prog.ret ())
  in
  match hide_crash_reason prog st w with
  | Some msg ->
    check "split failure reported" true (String.length msg > 0)
  | None -> Alcotest.fail "impossible split not caught"

(* Counterexample traces: a refuted program's failure carries the
   offending schedule. *)
let test_counterexample_trace () =
  let sp = Label.make "ti_trace" in
  let c = Span.concurroid sp in
  let w = World.of_list [ c ] in
  let init = List.map (fun s -> State.singleton sp s) (Concurroid.enum c) in
  (* nullify without owning: unsafe; the trace should name it *)
  let report =
    Verify.check_triple ~interference:false ~world:w ~init
      (Prog.act (Span.nullify sp (p 1) Graph.Left))
      (Spec.make ~name:"bad"
         ~pre:(fun st ->
           Span.assert_in_dom sp (p 1) st
           && not (Span.assert_in_self sp (p 1) st))
         ~post:(fun _ _ _ -> true))
  in
  check "refuted" false (Verify.ok report);
  match report.Verify.failures with
  | f :: _ ->
    check "reason names the action" true
      (contains (Crash.message f.Verify.crash) "nullify")
  | [] -> Alcotest.fail "no failure recorded"

(* The randomized checker agrees with the exhaustive one on span_root. *)
let test_random_checker () =
  let pv = Label.make "ti_priv4" and sp = Label.make "ti_hspan4" in
  let w = World.of_list [ Priv.make pv ] in
  let g = Graph_catalog.fig2_graph () in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let r =
    Verify.check_triple_random ~fuel:1000 ~trials:30 ~world:w ~init:[ st ]
      (Span.span_root ~pv ~sp (p 1))
      (Span.span_root_spec ~pv (p 1))
  in
  check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r);
  Alcotest.(check int) "30 trials ran" 30 r.Verify.outcomes

(* max_outcomes caps exploration and clears the completeness flag. *)
let test_outcome_cap () =
  let sp = Label.make "ti_cap" in
  let c = Span.concurroid sp in
  let w = World.of_list [ c ] in
  let g =
    Graph_catalog.graph_of
      [ (p 1, p 2, p 3); (p 2, Ptr.null, Ptr.null); (p 3, Ptr.null, Ptr.null) ]
  in
  let st =
    State.singleton sp
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  let outcomes, complete =
    Sched.explore ~interference:false ~max_outcomes:3
      ~f:(fun n _ -> n + 1)
      ~init:0 genv mine (Span.span sp (p 1))
  in
  check "capped" false complete;
  Alcotest.(check int) "exactly the cap" 3 outcomes

let suite =
  [
    Alcotest.test_case "pointer supply" `Quick test_ptr;
    Alcotest.test_case "world construction" `Quick test_world;
    Alcotest.test_case "contributions" `Quick test_contrib;
    Alcotest.test_case "hide: bad decoration" `Quick test_hide_bad_decoration;
    Alcotest.test_case "hide: incoherent install" `Quick
      test_hide_incoherent_init;
    Alcotest.test_case "par: impossible split" `Quick test_par_split_failure;
    Alcotest.test_case "counterexample traces" `Quick
      test_counterexample_trace;
    Alcotest.test_case "randomized checker" `Quick test_random_checker;
    Alcotest.test_case "outcome cap" `Quick test_outcome_cap;
  ]
