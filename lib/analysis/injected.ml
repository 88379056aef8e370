(* Failure injection: three deliberately broken variants of verified
   case studies, each of which the analyzer must flag — the positive
   half of the analyzer's contract ({!Cases} is the negative half: zero
   findings on the genuine Table 1 rows).

   - [span_nocas]: Figure 1's spanning-tree walk with the marking CAS
     replaced by a read and a plain write.  The static race detector
     must flag the write/write (and read/write) conflicts between the
     two arms of the recursive [par].
   - [ticket skip]: a client action that writes the ticketed lock's
     protected cell without checking it holds the lock (the "skipped
     ticket check").  The action lint must report that no TLock
     transition justifies the step.
   - [ABA stack]: a Treiber-stack concurroid extended with a [free]
     transition that deallocates retired nodes — exactly what Treiber's
     retire-in-place discipline forbids, and what makes ABA reorderings
     observable.  The concurroid lint must flag the footprint violation,
     and the [assert_node_pinned] stability lemma the pop proof leans on
     must come back unstable. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies

(* 1. Spanning tree without the CAS. *)

let span_nocas_source =
  {|
span_nocas (x : ptr) : bool {
  if x == null then return false
  else {
    b <- x->m;
    if b then return true
    else {
      x->m := true;
      (rl, rr) <- (span_nocas(x->l) || span_nocas(x->r));
      if !rl then x->l := null;
      if !rr then x->r := null;
      return true
    }
  }
}
|}

let span_nocas_findings () : Diag.finding list =
  match Surface.analyze_source ~name:"span_nocas" span_nocas_source with
  | Ok fs -> fs
  | Error msg -> [ Diag.error ~rule:"parse-error" ~loc:"span_nocas" msg ]

(* 2. Writing the lock-protected cell without holding the lock. *)

let counter_cell = Ptr.of_int 50 (* the cell of Laws.counter_resource *)

let ticket_skip_findings () : Diag.finding list =
  let tl = Label.make "an_tlock_skip" in
  let cfg = Ticketlock.default_config in
  let resource = Fcsl_report.Laws.counter_resource in
  let conc = Ticketlock.concurroid ~label:tl cfg resource in
  let w = World.of_list [ conc ] in
  let states = List.map (State.singleton tl) (Concurroid.enum conc) in
  (* [Ticketlock.write] insists on [holds]; this variant does not — it
     barges into the critical section without awaiting its ticket. *)
  let barging_write : unit Action.t =
    Action.make ~name:(fun () -> "write_skipping_ticket_check")
      ~fp:(Footprint.writes tl)
      ~safe:(fun st -> Heap.mem counter_cell (State.joint tl st))
      ~step:(fun st ->
        ( (),
          State.with_joint tl
            (Heap.update counter_cell (Value.int 7) (State.joint tl st))
            st ))
      ~phys:(fun _ -> Action.Write (counter_cell, Value.int 7))
      ()
  in
  Lint.action_lint w barging_write ~states

(* 3. The ABA-prone Treiber stack. *)

let aba_concurroid label : Concurroid.t =
  (* One extra internal transition: deallocate any retired node (present
     in the joint heap but unreachable from [top]).  Real Treiber
     retires nodes in place precisely so that a reused address can never
     fool a pop's CAS. *)
  let free_tr =
    Concurroid.internal ~name:"free_retired" (fun s ->
        let joint = Slice.joint s in
        match Treiber.top_of joint with
        | None -> []
        | Some top ->
          let reachable =
            match Treiber.list_from joint top with
            | Some nodes -> List.map fst nodes
            | None -> []
          in
          Heap.dom joint
          |> List.filter (fun p ->
                 (not (Ptr.equal p Treiber.top_cell))
                 && not (List.exists (Ptr.equal p) reachable))
          |> List.map (fun p -> Slice.with_joint (Heap.free p joint) s))
  in
  Concurroid.make ~label ~name:"TreiberABA" ~coh:Treiber.coh
    ~transitions:[ Treiber.push_tr; Treiber.pop_tr; free_tr ]
    ~enum:(fun () -> Treiber.enum ())
    ()

(* A state in which some node is retired, with its contents — the
   configuration whose pinning the pop proof relies on. *)
let retired_node_in (l : Label.t) (st : State.t) : (Ptr.t * (int * Ptr.t)) option
    =
  let joint = State.joint l st in
  match Treiber.top_of joint with
  | None -> None
  | Some top ->
    let reachable =
      match Treiber.list_from joint top with
      | Some nodes -> List.map fst nodes
      | None -> []
    in
    List.find_map
      (fun p ->
        if Ptr.equal p Treiber.top_cell || List.exists (Ptr.equal p) reachable
        then None
        else
          Option.map (fun node -> (p, node)) (Treiber.node_of joint p))
      (Heap.dom joint)

let aba_findings () : Diag.finding list =
  let l = Label.make "an_treiber_aba" in
  let c = aba_concurroid l in
  let laws = Lint.concurroid_lint c in
  let w = World.of_list [ c ] in
  let states = List.map (State.singleton l) (Concurroid.enum c) in
  let pinned =
    match List.find_map (fun st -> retired_node_in l st) states with
    | None -> [] (* no retired node in the universe: nothing to destabilize *)
    | Some (p, (v, nxt)) -> (
      match
        Stability.check w ~states (Treiber.assert_node_pinned l p (v, nxt))
      with
      | Stability.Stable -> []
      | Stability.Unstable { state; step; after } ->
        [
          Diag.error ~rule:"unstable-assertion"
            ~loc:(Fmt.str "assert_node_pinned %a" Ptr.pp p)
            "the pinned-node lemma of the pop proof is unstable once \
             retired nodes can be freed (the ABA window)"
            ~detail:
              [
                Fmt.str "holds in:  %a" State.pp state;
                Fmt.str "env step:  %s" step;
                Fmt.str "fails in:  %a" State.pp after;
              ];
        ])
  in
  laws @ pinned

(* 4 & 5. Deadlock injections: an AB/BA lock inversion and a leaked
   lock (a path returning past its release).

   Both scenarios live over the same two-spinlock world: CLock "A"
   guarding cell 95 and CLock "B" guarding cell 96.  Each scenario is
   declared ONCE, as {!Deadlock.script}s; the static findings come from
   analyzing the scripts, and the dynamic programs are compiled from
   the very same scripts ({!prog_of_script}) — so the static claim and
   the executed behavior cannot drift.  The differential tests then
   demand that the scheduler's stuck-state witness names the same locks
   the static cycle (resp. must-release path) does. *)

module Aux = Fcsl_pcm.Aux

let lock_a_label = Label.make "A"
let lock_b_label = Label.make "B"
let lock_a_cfg : Caslock.config = { lk = Ptr.of_int 93 }
let lock_b_cfg : Caslock.config = { lk = Ptr.of_int 94 }
let cell_a = Ptr.of_int 95
let cell_b = Ptr.of_int 96
let resource_a = Lock_intf.cell_resource cell_a
let resource_b = Lock_intf.cell_resource cell_b

let deadlock_world () =
  World.of_list
    [
      Caslock.concurroid ~label:lock_a_label lock_a_cfg resource_a;
      Caslock.concurroid ~label:lock_b_label lock_b_cfg resource_b;
    ]

let deadlock_init_state () =
  let slice cfg res cell =
    Caslock.initial_slice cfg res (Heap.singleton cell (Value.int 0)) Aux.Unit
  in
  State.add lock_b_label
    (slice lock_b_cfg resource_b cell_b)
    (State.singleton lock_a_label (slice lock_a_cfg resource_a cell_a))

let lock_of_name = function
  | "A" -> (lock_a_label, lock_a_cfg, resource_a)
  | "B" -> (lock_b_label, lock_b_cfg, resource_b)
  | n -> invalid_arg ("Injected.lock_of_name: unknown lock " ^ n)

(* Compile one script thread to the DSL: acquire = the CLock spin loop,
   release = the invariant-restoring unlock. *)
let prog_of_script (sc : Deadlock.script) : unit Prog.t =
  List.fold_left
    (fun acc step ->
      let p =
        match step with
        | Deadlock.S_acquire n ->
          let l, cfg, _ = lock_of_name n in
          Caslock.lock l cfg
        | Deadlock.S_release n ->
          let l, cfg, res = lock_of_name n in
          Caslock.unlock l cfg res ~delta:Aux.Unit
      in
      Prog.seq acc p)
    (Prog.ret ()) sc.Deadlock.sc_steps

type deadlock_scenario = {
  dl_name : string;
  dl_scripts : Deadlock.script list; (* exactly two threads *)
  dl_expect_locks : string list;
      (* lock names both layers must report: the static cycle's (resp.
         leaked lock's) names, and the dynamic witness's held+awaited
         set *)
}

let lock_inversion_scenario =
  {
    dl_name = "lock inversion";
    dl_scripts =
      [
        {
          Deadlock.sc_thread = "left";
          sc_steps =
            [
              Deadlock.S_acquire "A";
              S_acquire "B";
              S_release "B";
              S_release "A";
            ];
          sc_exit = Deadlock.Returns;
        };
        {
          Deadlock.sc_thread = "right";
          sc_steps =
            [
              Deadlock.S_acquire "B";
              S_acquire "A";
              S_release "A";
              S_release "B";
            ];
          sc_exit = Deadlock.Returns;
        };
      ];
    dl_expect_locks = [ "A"; "B" ];
  }

let leaked_lock_scenario =
  {
    dl_name = "leaked lock";
    dl_scripts =
      [
        (* the leaker returns still holding A — the must-release
           violation ... *)
        {
          Deadlock.sc_thread = "leaker";
          sc_steps = [ Deadlock.S_acquire "A" ];
          sc_exit = Deadlock.Returns;
        };
        (* ... which starves the well-behaved neighbour for good. *)
        {
          Deadlock.sc_thread = "neighbour";
          sc_steps = [ Deadlock.S_acquire "A"; S_release "A" ];
          sc_exit = Deadlock.Returns;
        };
      ];
    dl_expect_locks = [ "A" ];
  }

let deadlock_verdict (sc : deadlock_scenario) : Deadlock.verdict =
  Deadlock.analyze_scripts ~case:sc.dl_name
    ~locks:(Deadlock.locks_of_world (deadlock_world ()))
    sc.dl_scripts

let lock_inversion_findings () : Diag.finding list =
  (deadlock_verdict lock_inversion_scenario).Deadlock.v_findings

let leaked_lock_findings () : Diag.finding list =
  (deadlock_verdict leaked_lock_scenario).Deadlock.v_findings

(* Run a scenario's compiled program under exhaustive exploration (no
   environment interference: the two threads ARE the whole system) and
   return the stuck-state witnesses the scheduler found. *)
let explore_scenario ?(fuel = 64) (sc : deadlock_scenario) : Crash.t list =
  let w = deadlock_world () in
  let st = deadlock_init_state () in
  let genv, mine = Sched.genv_of_state w st in
  let prog =
    match sc.dl_scripts with
    | [ a; b ] -> Prog.par (prog_of_script a) (prog_of_script b)
    | _ -> invalid_arg "Injected.explore_scenario: expected two threads"
  in
  let deadlocks, _complete =
    Sched.explore ~fuel ~dedup:true
      ~f:(fun acc -> function
        | Sched.Crashed c when Crash.kind c = Crash.Deadlock -> c :: acc
        | _ -> acc)
      ~init:[] genv mine prog
  in
  List.rev deadlocks

(* All five, keyed for the CLI's self-test section and the tests. *)
let all_variants () : (string * Diag.finding list) list =
  [
    ("span without CAS", span_nocas_findings ());
    ("skipped ticket check", ticket_skip_findings ());
    ("ABA stack", aba_findings ());
    ("lock inversion", lock_inversion_findings ());
    ("leaked lock", leaked_lock_findings ());
  ]
