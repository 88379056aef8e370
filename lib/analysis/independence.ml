(* Static independence analysis: derive, per Table 1 case study, which
   pairs of schedulable moves commute, as a report ([fcsl analyze
   --independence]; docs/ANALYSIS.md §Independence documents the trust
   model).  No engine consumes the relation: the memoized explorer
   already expands each distinct configuration once.

   Three rules, in the order they are tried:

   1. indep-fp — disjoint (or jointly read-only) declared footprints:
      [Footprint.commutes].  Purely syntactic.

   2. indep-pcm — algebraic commutation for same-label pairs the
      footprint rule cannot see: both actions contribute into the same
      concurroid's state, but their composed effects are
      order-insensitive by the laws of the PCMs involved (disjoint heap
      cells, commutative Nat addition, disjoint ptr-set unions, ...).
      A certificate is only emitted when BOTH hold: every PCM sort the
      pair touches has an entry in the law table below, and an
      exhaustive step-commutation check over the case's enumerated
      coherent states finds at least [min_witnesses] states where both
      actions run and never finds a state where the two orders disagree
      (in final state, in either result, or in enabledness).  The
      deterministic enumeration lives here; test/test_analysis.ml adds
      the QCheck property over random coherent states.

   3. indep-env — environment transitions at distinct labels.  An env
      step at label [l] rewrites the slice at [l] and nothing else
      (other-fixity, a lint-checked concurroid law), so its envelope is
      [Footprint.touches l] by construction and distinct-label pairs
      fall out of the same commutation check as rule 1; the rule id is
      kept separate because the justification is the concurroid law,
      not a declared footprint. *)

open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux

(* Rule ids are stable: CI baselines and the JSON consumers key on
   them. *)
let rule_fp = "indep-fp"
let rule_pcm = "indep-pcm"
let rule_env = "indep-env"

type any_action = Any : 'a Action.t -> any_action

type move = {
  m_name : string;
  m_fp : Footprint.t;
  m_env : Label.t option; (* [Some l] for an environment transition *)
}

type verdict =
  | Independent of { rule : string; why : string }
  | Dependent of { why : string }

type pair = { p_a : string; p_b : string; p_verdict : verdict }

type matrix = {
  x_case : string;
  x_moves : move list;
  x_pairs : pair list; (* unordered pairs of distinct moves *)
  x_certs : (string * string) list; (* the rule-2 certified name pairs *)
}

(* --- The PCM law-certificate table -----------------------------------

   One entry per Aux sort: the algebraic fact that makes same-sort
   contributions order-insensitive when their joins are defined.  A sort
   missing here (a user PCM grafted into Aux) gets no rule-2
   certificates — sampling alone is not a certificate. *)

let sort_name : Aux.t -> string = function
  | Aux.Unit -> "unit"
  | Aux.Nat _ -> "nat"
  | Aux.Mutex _ -> "mutex"
  | Aux.Set _ -> "set"
  | Aux.Heap _ -> "heap"
  | Aux.Hist _ -> "hist"
  | Aux.Pair _ -> "pair"

let pcm_laws =
  [
    ("unit", "unit PCM: trivially commutative");
    ("nat", "Nat under addition: x + y = y + x");
    ("mutex", "Mutex: Own joins only with Not_own, and that join commutes");
    ("set", "disjoint ptr-set union is commutative");
    ("heap", "disjoint-domain heap union is commutative");
    ("hist", "disjoint-timestamp history union is commutative");
    ("pair", "product PCM: commutes componentwise");
  ]

(* --- Sampled step commutation (rule 2's dynamic half) ---------------- *)

let min_witnesses = 3

type sample = Pass | Skip | Refuted of string

let runnable p st =
  match p with Any a -> Action.enabled a st && Action.safe a st

let poly_eq x y = try Stdlib.compare x y = 0 with _ -> false

(* Run the pair in both orders from [st] and compare final states and
   both results.  Results are compared with polymorphic compare —
   action results are scalar values (pointers, ints, bools, Values) —
   and a compare that raises is treated as a mismatch, the conservative
   direction.  A run that faults mid-way (the second action disabled or
   unsafe after the first) counts as "that order not runnable". *)
let commute_sample (pa : any_action) (pb : any_action) st : sample =
  if not (runnable pa st && runnable pb st) then Skip
  else
    match (pa, pb) with
    | Any a, Any b -> (
      let run1 x st = try Some (Action.step_exn x st) with _ -> None in
      let seq x y =
        match run1 x st with
        | Some (rx, st') ->
          if Action.enabled y st' && Action.safe y st' then
            Option.map (fun (ry, st'') -> (rx, ry, st'')) (run1 y st')
          else None
        | None -> None
      in
      match (seq a b, seq b a) with
      | Some (ra, rb, st_ab), Some (rb', ra', st_ba) ->
        if not (State.equal st_ab st_ba) then
          Refuted (Fmt.str "orders diverge from %a" State.pp st)
        else if not (poly_eq ra ra' && poly_eq rb rb') then
          Refuted (Fmt.str "results depend on order from %a" State.pp st)
        else Pass
      | None, None -> Skip
      | _ ->
        Refuted (Fmt.str "enabledness depends on order from %a" State.pp st))

(* The Aux sorts a pair may interact through: the self-contribution
   sorts at every label both footprints declare, over the sampled
   states. *)
let shared_sorts (states : State.t list) fp_a fp_b =
  match (Footprint.labels fp_a, Footprint.labels fp_b) with
  | Some la, Some lb ->
    let shared = Label.Set.inter la lb in
    let sorts = Hashtbl.create 7 in
    List.iter
      (fun st ->
        Label.Set.iter
          (fun l ->
            match State.find l st with
            | Some s -> Hashtbl.replace sorts (sort_name (Slice.self s)) ()
            | None -> ())
          shared)
      states;
    Some (Hashtbl.fold (fun k () acc -> k :: acc) sorts [] |> List.sort compare)
  | _ -> None

(* Rule 2 for one action pair: law-table coverage plus exhaustive
   sampled commutation. *)
let pcm_certificate (states : State.t list) (na, fpa, pa) (nb, fpb, pb) :
    verdict option =
  match shared_sorts states fpa fpb with
  | None -> None (* an unknown envelope certifies nothing *)
  | Some sorts ->
    let laws =
      List.filter_map (fun s -> Option.map (fun l -> (s, l)) (List.assoc_opt s pcm_laws)) sorts
    in
    if List.length laws < List.length sorts then None
    else
      let witnesses = ref 0 in
      let refutation = ref None in
      List.iter
        (fun st ->
          if !refutation = None then
            match commute_sample pa pb st with
            | Pass -> incr witnesses
            | Skip -> ()
            | Refuted w -> refutation := Some w)
        states;
      match !refutation with
      | Some w ->
        Some (Dependent { why = Fmt.str "%s and %s: %s" na nb w })
      | None ->
        if !witnesses < min_witnesses then None
        else
          Some
            (Independent
               {
                 rule = rule_pcm;
                 why =
                   Fmt.str
                     "same-label contributions commute: %s (%d/%d sampled \
                      states witness both orders agree)"
                     (String.concat "; "
                        (List.map (fun (s, l) -> s ^ " — " ^ l) laws))
                     !witnesses (List.length states);
               })

(* --- The per-pair decision ------------------------------------------- *)

let decide a b : verdict =
  let fp_rule, fp_why =
    match (a.m_env, b.m_env) with
    | Some la, Some lb when not (Label.equal la lb) ->
      ( rule_env,
        Fmt.str
          "environment transitions at distinct labels %a and %a rewrite \
           disjoint slices (other-fixity)"
          Label.pp la Label.pp lb )
    | _ ->
      ( rule_fp,
        Fmt.str "declared footprints %a and %a commute" Footprint.pp a.m_fp
          Footprint.pp b.m_fp )
  in
  if Footprint.commutes a.m_fp b.m_fp then
    Independent { rule = fp_rule; why = fp_why }
  else
    Dependent
      {
        why =
          Fmt.str "footprints %a and %a overlap with writes" Footprint.pp
            a.m_fp Footprint.pp b.m_fp;
      }

(* --- Per-case inventories --------------------------------------------

   The moves each case's programs schedule: the action instances its
   drivers build (with the same labels and parameters), plus one env
   move per (concurroid, transition).  Kept in one place so the matrix
   and the certificate tests see the same inventory. *)

type inventory = {
  i_world : World.t;
  i_states : State.t list;
  i_actions : any_action list;
}

let env_moves_of_world (w : World.t) : move list =
  List.concat_map
    (fun c ->
      let l = Concurroid.label c in
      List.map
        (fun n ->
          {
            m_name = Fmt.str "env@%a:%s" Label.pp l n;
            m_fp = Footprint.touches l;
            m_env = Some l;
          })
        (Concurroid.transition_names c))
    (World.concurroids w)

let treiber_actions tb pv n1 : any_action list =
  [
    Any (Treiber.read_top tb);
    Any (Treiber.read_top_nonempty tb);
    Any (Treiber.read_node tb n1);
    Any (Treiber.set_node pv n1 1 Fcsl_heap.Ptr.null);
    Any (Treiber.cas_push tb pv n1 1 Fcsl_heap.Ptr.null);
    Any (Treiber.cas_pop tb n1 Fcsl_heap.Ptr.null);
  ]

let caslock_incr_inventory () =
  let module C = Cg_incr.Cas in
  {
    i_world = C.world ();
    i_states = C.init_states ();
    i_actions =
      [
        Any (Caslock.try_lock C.label C.cfg);
        Any (Caslock.unlock_act C.label C.cfg C.resource ~delta:(Aux.nat 1));
        Any (Caslock.read C.label C.cfg C.x_cell);
        Any (Caslock.write C.label C.cfg C.x_cell (Fcsl_heap.Value.int 1));
      ];
  }

let ticketlock_incr_inventory () =
  let module T = Cg_incr.Ticketed in
  {
    i_world = T.world ();
    i_states = T.init_states ();
    i_actions =
      [
        Any (Ticketlock.take_ticket T.label T.cfg);
        Any (Ticketlock.read_owner T.label T.cfg);
        Any (Ticketlock.unlock_act T.label T.cfg T.resource ~delta:(Aux.nat 1));
        Any (Ticketlock.read T.label T.cfg T.x_cell);
        Any (Ticketlock.write T.label T.cfg T.x_cell (Fcsl_heap.Value.int 1));
      ];
  }

let cg_alloc_inventory () =
  let module A = Cg_alloc.Cas in
  let p = List.hd A.pool_cells in
  {
    i_world = A.world ();
    i_states = A.init_states ();
    i_actions =
      [
        Any (Caslock.try_lock A.al_label A.cfg);
        Any (Caslock.unlock_act A.al_label A.cfg A.resource ~delta:Aux.unit);
        Any (A.peek_pool A.al_label);
        Any (A.take_cell A.al_label A.pv_label p);
        Any (A.put_cell A.al_label A.pv_label p);
      ];
  }

let snapshot_inventory () =
  let sp = Snapshot.sp_label in
  {
    i_world = Snapshot.world ();
    i_states = Snapshot.init_states ();
    i_actions =
      [
        Any (Snapshot.read_cell sp Snapshot.x_cell);
        Any (Snapshot.read_cell sp Snapshot.y_cell);
        Any (Snapshot.write_cell sp Snapshot.x_cell 1);
        Any (Snapshot.write_cell sp Snapshot.y_cell 2);
      ];
  }

let treiber_inventory () =
  {
    i_world = Treiber.world ();
    i_states = Treiber.init_states ();
    i_actions = treiber_actions Treiber.tb_label Treiber.pv_label Treiber.node1;
  }

let span_inventory () =
  let sp = Span.sp_label in
  let a = List.assoc "a" Graph_catalog.fig2_nodes in
  let b = List.assoc "b" Graph_catalog.fig2_nodes in
  {
    i_world = Span.world ~max_nodes:2 ();
    i_states = Span.init_states ~max_nodes:2 ();
    i_actions =
      [
        Any (Span.trymark sp a);
        Any (Span.trymark sp b);
        Any (Span.read_child sp a Fcsl_heap.Graph.Left);
        Any (Span.nullify sp a Fcsl_heap.Graph.Left);
      ];
  }

let flatcombiner_inventory () =
  let fc = Fc_stack.fc_label in
  let so = Fc_stack.seq_stack in
  let cfg = Fc_stack.cfg in
  {
    i_world = Fc_stack.world ();
    i_states = Fc_stack.init_states ();
    i_actions =
      [
        Any (Flatcombiner.publish_act so cfg fc ~slot:0 "push" (Fcsl_heap.Value.int 1));
        Any (Flatcombiner.publish_act so cfg fc ~slot:1 "pop" Fcsl_heap.Value.unit);
        Any (Flatcombiner.poll_act cfg fc ~slot:0);
        Any (Flatcombiner.poll_act cfg fc ~slot:1);
        Any (Flatcombiner.try_lock_act cfg fc);
        Any (Flatcombiner.unlock_act cfg fc);
        Any (Flatcombiner.read_slot_act cfg fc 0);
        Any (Flatcombiner.read_slot_act cfg fc 1);
        Any (Flatcombiner.apply_act so cfg fc 0);
        Any (Flatcombiner.respond_act cfg fc 0);
        Any (Flatcombiner.claim_act cfg fc ~slot:0);
        Any (Flatcombiner.claim_act cfg fc ~slot:1);
      ];
  }

let stack_clients_inventory () =
  {
    i_world = Stack_clients.world ();
    i_states = Stack_clients.init_states ();
    i_actions =
      treiber_actions Stack_clients.tb_label Stack_clients.pv_label
        Stack_clients.n1;
  }

let inventory_of_case (name : string) : inventory option =
  match name with
  | "CAS-lock" | "CG increment" -> Some (caslock_incr_inventory ())
  | "Ticketed lock" -> Some (ticketlock_incr_inventory ())
  | "CG allocator" -> Some (cg_alloc_inventory ())
  | "Pair snapshot" -> Some (snapshot_inventory ())
  | "Treiber stack" -> Some (treiber_inventory ())
  | "Spanning tree" -> Some (span_inventory ())
  | "Flat combiner" | "FC-stack" -> Some (flatcombiner_inventory ())
  | "Seq. stack" | "Prod/Cons" -> Some (stack_clients_inventory ())
  | _ -> None

(* --- The matrix ------------------------------------------------------ *)

let analyze_inventory ~case (inv : inventory) : matrix =
  let states = List.filter (World.coh inv.i_world) inv.i_states in
  let act_moves =
    List.map
      (function
        | Any a ->
          { m_name = Action.name a; m_fp = Action.footprint a; m_env = None })
      inv.i_actions
  in
  let moves = act_moves @ env_moves_of_world inv.i_world in
  let actions =
    List.map
      (function
        | Any a as any -> (Action.name a, Action.footprint a, any))
      inv.i_actions
  in
  let pairs = ref [] in
  let certs = ref [] in
  let rec go = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          let v =
            match decide a b with
            | Independent _ as v -> v
            | Dependent _ as dep -> (
              (* rule 2 only applies to program-action pairs *)
              match (a.m_env, b.m_env) with
              | None, None -> (
                let find n =
                  List.find_opt (fun (n', _, _) -> String.equal n n') actions
                in
                match (find a.m_name, find b.m_name) with
                | Some pa, Some pb -> (
                  match pcm_certificate states pa pb with
                  | Some (Independent _ as v) ->
                    certs := (a.m_name, b.m_name) :: !certs;
                    v
                  | Some (Dependent _ as v) -> v
                  | None -> dep)
                | _ -> dep)
              | _ -> dep)
          in
          pairs := { p_a = a.m_name; p_b = b.m_name; p_verdict = v } :: !pairs)
        rest;
      go rest
  in
  go moves;
  {
    x_case = case;
    x_moves = moves;
    x_pairs = List.rev !pairs;
    x_certs = List.rev !certs;
  }

let analyze_case (name : string) : matrix option =
  Option.map (fun inv -> analyze_inventory ~case:name inv)
    (inventory_of_case name)

let analyze_all () : matrix list =
  List.filter_map (fun c -> analyze_case c.Fcsl_report.Registry.c_name)
    Fcsl_report.Registry.all

(* --- Rendering ------------------------------------------------------- *)

let independent_count m =
  List.length
    (List.filter
       (fun p -> match p.p_verdict with Independent _ -> true | _ -> false)
       m.x_pairs)

let pp_verdict ppf = function
  | Independent { rule; why } -> Fmt.pf ppf "independent [%s] %s" rule why
  | Dependent { why } -> Fmt.pf ppf "dependent: %s" why

let pp_matrix ppf (m : matrix) =
  Fmt.pf ppf "@[<v2>%s: %d moves, %d/%d pairs independent" m.x_case
    (List.length m.x_moves) (independent_count m) (List.length m.x_pairs);
  List.iter
    (fun p -> Fmt.pf ppf "@ %s × %s: %a" p.p_a p.p_b pp_verdict p.p_verdict)
    m.x_pairs;
  Fmt.pf ppf "@]"

let matrix_to_json (m : matrix) =
  let pair p =
    let indep, rule, why =
      match p.p_verdict with
      | Independent { rule; why } -> (true, rule, why)
      | Dependent { why } -> (false, "dep", why)
    in
    Json.Obj
      [
        ("a", Json.Str p.p_a);
        ("b", Json.Str p.p_b);
        ("independent", Json.Bool indep);
        ("rule", Json.Str rule);
        ("why", Json.Str why);
      ]
  in
  Json.Obj
    [
      ("case", Json.Str m.x_case);
      ("moves", Json.Arr (List.map (fun mv -> Json.Str mv.m_name) m.x_moves));
      ("pairs", Json.Arr (List.map pair m.x_pairs));
    ]
