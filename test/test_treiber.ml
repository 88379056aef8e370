(* Treiber stack and its clients: laws, stability, subjective-history
   triples, the hide-based sequential stack, producer/consumer, the
   allocator-entangled push, and failure injections (non-atomic pop,
   ABA-style reuse). *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

let check = Alcotest.(check bool)

let setup () =
  let l = Label.make "tt_treiber" in
  let c = Treiber.concurroid ~depth:2 l in
  let states = List.map (fun s -> State.singleton l s) (Concurroid.enum c) in
  (l, c, World.of_list [ c ], states)

let test_laws () =
  let _, c, _, _ = setup () in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (Fmt.str "%a" Concurroid.pp_violation) (Concurroid.check_laws c))

let test_replay () =
  let h =
    Hist.empty
    |> Hist.add 1
         (Hist.entry ~arg:(Value.int 1) ~state:(Treiber.encode_stack [ 1 ])
            "push")
    |> Hist.add 2
         (Hist.entry ~arg:(Value.int 2) ~state:(Treiber.encode_stack [ 2; 1 ])
            "push")
    |> Hist.add 3
         (Hist.entry ~res:(Value.int 2) ~state:(Treiber.encode_stack [ 1 ])
            "pop")
  in
  check "legal replay" true (Treiber.replay h = Some [ 1 ]);
  (* illegal: pop result does not match the top *)
  let bad =
    Hist.empty
    |> Hist.add 1
         (Hist.entry ~arg:(Value.int 1) ~state:(Treiber.encode_stack [ 1 ])
            "push")
    |> Hist.add 2
         (Hist.entry ~res:(Value.int 9) ~state:(Treiber.encode_stack []) "pop")
  in
  check "illegal replay rejected" true (Treiber.replay bad = None);
  (* gap in timestamps *)
  let gap =
    Hist.add 2
      (Hist.entry ~arg:(Value.int 1) ~state:(Treiber.encode_stack [ 1 ]) "push")
      Hist.empty
  in
  check "gapped history rejected" true (Treiber.replay gap = None)

let test_action_laws () =
  (* action laws need the entangled Priv world since cas_push
     communicates *)
  let w = Treiber.world () in
  let states = Treiber.init_states () in
  let tb = Treiber.tb_label and pv = Treiber.pv_label in
  let actions =
    [
      ("read_top", Action.map ignore (Treiber.read_top tb));
      ("read_node", Action.map ignore (Treiber.read_node tb Treiber.node1));
      ("set_node", Treiber.set_node pv Treiber.node1 1 Ptr.null);
      ( "cas_push",
        Action.map ignore (Treiber.cas_push tb pv Treiber.node1 1 Ptr.null) );
      ("cas_pop", Action.map ignore (Treiber.cas_pop tb Treiber.node1 Ptr.null));
    ]
  in
  List.iter
    (fun (name, a) ->
      Alcotest.(check (list string))
        (name ^ " laws") []
        (List.map (Fmt.str "%a" Action.pp_violation)
           (Action.check_laws w a ~states)))
    actions

let test_stability () =
  let l, _, w, states = setup () in
  let stable p = Stability.is_stable (Stability.check w ~states p) in
  (* a node published at ptr 85 with value 0: pinned forever *)
  check "published node pinned" true
    (stable (Treiber.assert_node_pinned l (Ptr.of_int 85) (0, Ptr.null)));
  check "timestamps grow" true (stable (Treiber.assert_ts_at_least l 1));
  (* negative control: being the top node is unstable *)
  check "top-ness unstable" false
    (stable (fun st ->
         match State.find l st with
         | Some s -> Treiber.top_of (Slice.joint s) = Some (Ptr.of_int 85)
         | None -> false))

let test_triples () =
  List.iter
    (fun r -> check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r))
    (Treiber.verify ())

let test_push_pop () =
  let r = Treiber.verify_push_pop () in
  check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r)

let test_clients () =
  List.iter
    (fun r -> check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r))
    [ Stack_clients.verify_seq (); Stack_clients.verify_prod_cons () ]

let test_abstract_stack_interface () =
  (* the unification exercise the paper left undone: one client, both
     stack implementations *)
  List.iter
    (fun r -> check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r))
    (Stack_intf.verify ())

let test_alloc_entangled () =
  List.iter
    (fun r -> check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r))
    (Treiber_alloc.verify ())

(* Failure injection 1: a non-atomic pop (read top; read next; WRITE
   top) loses pushes under interference. *)
let broken_pop tb : int option Prog.t =
  let open Prog in
  let* t = act (Treiber.read_top tb) in
  if Ptr.is_null t then ret None
  else
    let* v, next = act (Treiber.read_node tb t) in
    (* a plain write instead of CAS: not justified by any transition *)
    let write_top : unit Action.t =
      Action.make ~name:(fun () -> "write_top")
        ~safe:(fun st ->
          match State.find tb st with
          | Some s -> Option.is_some (Treiber.top_of (Slice.joint s))
          | None -> false)
        ~step:(fun st ->
          let s = State.find_exn tb st in
          ( (),
            State.add tb
              (Slice.with_joint
                 (Heap.update Treiber.top_cell (Value.ptr next) (Slice.joint s))
                 s)
              st ))
        ~phys:(fun _ -> Action.Write (Treiber.top_cell, Value.ptr next))
        ()
    in
    let* () = act write_top in
    ret (Some v)

let test_broken_pop_refuted () =
  (* The rogue write is caught by the action-law checker (no transition
     justifies dropping an element without stamping a pop). *)
  let l, _, w, states = setup () in
  ignore l;
  let a =
    Action.make ~name:(fun () -> "rogue_write_top")
      ~safe:(fun st ->
        match State.find (World.labels w |> List.hd) st with
        | Some s -> (
          match Treiber.top_of (Slice.joint s) with
          | Some t -> not (Ptr.is_null t)
          | None -> false)
        | None -> false)
      ~step:(fun st ->
        let lbl = World.labels w |> List.hd in
        let s = State.find_exn lbl st in
        let t = Option.get (Treiber.top_of (Slice.joint s)) in
        let _, next = Option.get (Treiber.node_of (Slice.joint s) t) in
        ( (),
          State.add lbl
            (Slice.with_joint
               (Heap.update Treiber.top_cell (Value.ptr next) (Slice.joint s))
               s)
            st ))
      ~phys:(fun st ->
        let lbl = World.labels w |> List.hd in
        let s = State.find_exn lbl st in
        let t = Option.get (Treiber.top_of (Slice.joint s)) in
        let _, next = Option.get (Treiber.node_of (Slice.joint s) t) in
        Action.Write (Treiber.top_cell, Value.ptr next))
      ()
  in
  check "rogue top write refuted" true (Action.check_laws w a ~states <> [])

(* Failure injection 2: the non-atomic pop also breaks client-visible
   correctness: under a racing pop, an element can be popped twice or
   lost; the composite spec fails. *)
let test_broken_pop_client_refuted () =
  let w = Treiber.world () in
  let init =
    List.filter
      (fun st ->
        (* start from a two-element stack *)
        match State.find Treiber.tb_label st with
        | Some s -> (
          match Treiber.contents (Slice.joint s) with
          | Some (_ :: _ :: _) -> true
          | _ -> false)
        | None -> false)
      (Treiber.init_states ~depth:2 ())
  in
  let spec =
    Spec.make ~name:"broken pop pair"
      ~pre:(fun st -> Hist.is_empty (Treiber.self_hist Treiber.tb_label st))
      ~post:(fun (a, b) _i _f ->
        match (a, b) with
        | Some x, Some y -> x <> y (* distinct elements popped *)
        | _ -> true)
  in
  let report =
    Verify.check_triple ~fuel:20 ~interference:false ~world:w ~init
      (Prog.par (broken_pop Treiber.tb_label) (broken_pop Treiber.tb_label))
      spec
  in
  check "broken pop client refuted" false (Verify.ok report)

(* Property: random schedules of pushes and pops keep coherence and
   yield legal histories. *)
let prop_random_runs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"random push/pop runs stay coherent"
       QCheck2.Gen.(int_range 1 1_000_000)
       (fun seed ->
         let w = Treiber.world () in
         let init = Treiber.init_states () in
         let st = List.nth init (seed mod List.length init) in
         if not (World.coh w st) then true
         else if
           (* need both node cells private for the two pushes *)
           match Aux.as_heap (State.self Treiber.pv_label st) with
           | Some h -> not (Heap.mem Treiber.node1 h && Heap.mem Treiber.node2 h)
           | None -> true
         then true
         else
           let genv, mine = Sched.genv_of_state w st in
           let prog =
             Prog.par_split
               (Prog.split_cells ~pv:Treiber.pv_label
                  ~to_left:[ Treiber.node1 ] ~to_right:[ Treiber.node2 ])
               (Prog.seq
                  (Treiber.push Treiber.tb_label Treiber.pv_label Treiber.node1 1)
                  (Treiber.pop Treiber.tb_label))
               (Treiber.push Treiber.tb_label Treiber.pv_label Treiber.node2 2)
           in
           match Sched.run_random ~seed genv mine prog with
           | Sched.Finished (_, final) -> World.coh w final
           | Sched.Crashed _ -> false
           | Sched.Diverged -> true))

let suite =
  [
    Alcotest.test_case "concurroid laws" `Quick test_laws;
    Alcotest.test_case "history replay" `Quick test_replay;
    Alcotest.test_case "action laws" `Quick test_action_laws;
    Alcotest.test_case "stability lemmas" `Quick test_stability;
    Alcotest.test_case "push/pop triples" `Slow test_triples;
    Alcotest.test_case "push || pop triple" `Slow test_push_pop;
    Alcotest.test_case "seq stack & prod/cons" `Quick test_clients;
    Alcotest.test_case "allocator-entangled push" `Slow test_alloc_entangled;
    Alcotest.test_case "abstract stack interface (Treiber & FC)" `Quick
      test_abstract_stack_interface;
    Alcotest.test_case "injected: rogue top write refuted" `Quick
      test_broken_pop_refuted;
    Alcotest.test_case "injected: non-atomic pop refuted" `Slow
      test_broken_pop_client_refuted;
    prop_random_runs;
  ]
