(* The dense representations behind the explorer's hot path (DESIGN.md
   Section 14) are exact: the incremental genv hash equals the
   from-scratch fold at every reachable configuration, incremental
   configuration keys equal keys built from scratch, [Contrib.equal]
   agrees with a set-union model, and the whole registry's verdicts AND
   explored-state counts are bit-identical to pinned baselines: the
   naive engine's under -j 1 and -j 4, and the memoized engine's states,
   memo hits and misses under -j 1. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Registry = Fcsl_report.Registry

let check = Alcotest.(check bool)
let p = Ptr.of_int

(* A span configuration over a catalogue graph, the setting of the
   ghash and incremental-key checks below. *)
let span_setup triples =
  let sp = Label.make "repr_span" in
  let conc = Span.concurroid sp in
  let w = World.of_list [ conc ] in
  let g = Graph_catalog.graph_of triples in
  let st =
    State.singleton sp
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  (sp, w, st)

(* ------------------------------------------------------------------ *)
(* The incremental genv hash is the from-scratch fold, everywhere.    *)
(* ------------------------------------------------------------------ *)

(* Bounded DFS over the real step relation (program moves and env
   moves), checking [ghash = recompute_ghash] at every configuration
   reached — the invariant every XOR patch in Sched must preserve. *)
let check_ghash_reachable ~fuel genv mine rt =
  let checked = ref 0 in
  let rec go fuel genv mine rt =
    Alcotest.(check int)
      (Printf.sprintf "ghash invariant (config %d)" !checked)
      (Sched.recompute_ghash genv) genv.Sched.ghash;
    incr checked;
    if fuel > 0 then
      match Sched.normalize genv mine rt with
      | Sched.Norm_crash _ -> ()
      | Sched.Norm (genv, mine, rt) -> (
        match Sched.as_ret rt with
        | Some _ -> ()
        | None ->
          List.iter
            (fun mv ->
              match Sched.move_next mv with
              | Ok (genv', mine', rt') -> go (fuel - 1) genv' mine' rt'
              | Error _ -> ())
            (Sched.moves genv Contrib.empty mine rt);
          List.iter
            (fun (_, genv') -> go (fuel - 1) genv' mine rt)
            (Sched.env_moves genv mine rt))
  in
  go fuel genv mine rt;
  check "explored some configurations" true (!checked > 1)

let test_ghash_span () =
  let sp, w, st = span_setup [ (p 1, p 2, Ptr.null); (p 2, Ptr.null, Ptr.null) ] in
  let genv, mine = Sched.genv_of_state ~interfere:(World.labels w) w st in
  check_ghash_reachable ~fuel:4 genv mine
    (Sched.inject
       (Prog.par
          (Prog.act (Span.trymark sp (p 1)))
          (Prog.act (Span.trymark sp (p 2)))))

let test_ghash_snapshot () =
  (* Histories and versioned cells: the Aux-heavy jaux path. *)
  let w = Snapshot.world () in
  List.iter
    (fun st ->
      let genv, mine = Sched.genv_of_state ~interfere:(World.labels w) w st in
      check_ghash_reachable ~fuel:3 genv mine
        (Sched.inject (Snapshot.read_pair Snapshot.sp_label)))
    (Snapshot.init_states ())

(* ------------------------------------------------------------------ *)
(* Incremental tree keys are the from-scratch keys, everywhere.       *)
(* ------------------------------------------------------------------ *)

(* Bounded DFS over program and env moves.  Every configuration is keyed
   twice with one keyer: first incrementally from its parent's
   normalized tree and key, as exploration keys it, then from scratch.
   Hash-consing makes the two tree keys the same physical node exactly
   when every reused subtree key and atom id is the one a fresh lookup
   returns.  The keyer also caches the last world's concurroid ids, so
   each configuration is keyed once more under the initial world: the
   keys may only agree when the two worlds hold the same concurroids. *)
let check_incremental_keys ~fuel genv mine rt =
  let keyer = Sched.new_keyer () in
  let world0 = genv.Sched.world in
  let checked = ref 0 in
  let rec go fuel genv mine rt prev =
    match Sched.normalize genv mine rt with
    | Sched.Norm_crash _ -> ()
    | Sched.Norm (genv, mine, rt) -> (
      match Sched.as_ret rt with
      | Some _ -> ()
      | None ->
        let inc = Sched.config_key ?prev keyer genv mine rt in
        let scratch = Sched.config_key keyer genv mine rt in
        let at = Printf.sprintf " (config %d)" !checked in
        check ("incremental tree key is the from-scratch one" ^ at) true
          (Sched.config_key_rt inc == Sched.config_key_rt scratch);
        check ("incremental key equals the from-scratch one" ^ at) true
          (Sched.config_key_equal inc scratch);
        Alcotest.(check int)
          ("incremental key hash" ^ at)
          (Sched.config_key_hash scratch) (Sched.config_key_hash inc);
        check ("world ids follow the world" ^ at)
          (List.equal ( == )
             (World.concurroids genv.Sched.world)
             (World.concurroids world0))
          (Sched.config_key_equal scratch
             (Sched.config_key keyer
                { genv with Sched.world = world0 }
                mine rt));
        incr checked;
        if fuel > 0 then begin
          let prev = Some (rt, Sched.config_key_rt inc) in
          List.iter
            (fun mv ->
              match Sched.move_next mv with
              | Ok (genv', mine', rt') -> go (fuel - 1) genv' mine' rt' prev
              | Error _ -> ())
            (Sched.moves genv Contrib.empty mine rt);
          List.iter
            (fun (_, genv') -> go (fuel - 1) genv' mine rt prev)
            (Sched.env_moves genv mine rt)
        end)
  in
  go fuel genv mine rt None;
  check "keyed some configurations" true (!checked > 1);
  !checked

let test_incremental_keys_span () =
  (* open world: two racing traversals under interference *)
  let sp, w, st =
    span_setup [ (p 1, p 2, Ptr.null); (p 2, Ptr.null, Ptr.null) ]
  in
  let genv, mine = Sched.genv_of_state ~interfere:(World.labels w) w st in
  ignore
    (check_incremental_keys ~fuel:8 genv mine
       (Sched.inject (Prog.par (Span.span sp (p 1)) (Span.span sp (p 2)))));
  (* closed world: [span_root] installs a concurroid with [hide] over the
     private heap and retracts it at the end, so the world changes
     mid-run *)
  let pv = Label.make "repr_span_priv" and sp' = Label.make "repr_span_hid" in
  let w = World.of_list [ Priv.make pv ] in
  let g =
    Graph_catalog.graph_of
      [ (p 1, p 2, p 3); (p 2, p 3, Ptr.null); (p 3, Ptr.null, Ptr.null) ]
  in
  let st =
    State.singleton pv
      (Slice.make
         ~self:(Aux.heap (Graph.to_heap g))
         ~joint:Heap.empty ~other:(Aux.heap Heap.empty))
  in
  let genv, mine = Sched.genv_of_state w st in
  let n =
    check_incremental_keys ~fuel:40 genv mine
      (Sched.inject (Span.span_root ~pv ~sp:sp' (p 1)))
  in
  check "keyed configurations under the hidden concurroid" true (n > 10)

let test_incremental_keys_snapshot () =
  let w = Snapshot.world () in
  List.iter
    (fun st ->
      let genv, mine = Sched.genv_of_state ~interfere:(World.labels w) w st in
      ignore
        (check_incremental_keys ~fuel:4 genv mine
           (Sched.inject
              (Prog.par
                 (Snapshot.read_pair Snapshot.sp_label)
                 (Snapshot.read_pair Snapshot.sp_label)))))
    (Snapshot.init_states ())

let test_incremental_keys_treiber () =
  let w = Treiber.world () in
  List.iter
    (fun st ->
      let genv, mine =
        Sched.genv_of_state ~interfere:[ Treiber.tb_label ] w st
      in
      ignore
        (check_incremental_keys ~fuel:6 genv mine
           (Sched.inject
              (Prog.par_split
                 (Prog.split_cells ~pv:Treiber.pv_label
                    ~to_left:[ Treiber.node1 ] ~to_right:[])
                 (Treiber.push Treiber.tb_label Treiber.pv_label
                    Treiber.node1 1)
                 (Treiber.pop Treiber.tb_label)))))
    (List.filter
       (fun st ->
         match Aux.as_heap (State.self Treiber.pv_label st) with
         | Some h -> Heap.mem Treiber.node1 h
         | None -> false)
       (Treiber.init_states ()))

(* ------------------------------------------------------------------ *)
(* Contrib.equal against the set-union definition it replaced.        *)
(* ------------------------------------------------------------------ *)

(* The reference model: pointwise [Aux.equal] of [Contrib.get] over the
   union of both label sets. *)
let contrib_equal_model c1 c2 =
  let labels =
    Label.Set.union
      (Label.Set.of_list (Label.Map.keys c1))
      (Label.Set.of_list (Label.Map.keys c2))
  in
  Label.Set.for_all
    (fun l -> Aux.equal (Contrib.get l c1) (Contrib.get l c2))
    labels

let contrib_labels =
  [| Label.make "ce_a"; Label.make "ce_b"; Label.make "ce_c" |]

(* Auxiliary values by index, each call a physically fresh copy: the
   structural [Unit] and the sort-specific units it must stay distinct
   from, histories (6 and 7 are equal, built in opposite orders),
   heaps and pairs. *)
let aux_value i =
  let hist stamps =
    Aux.hist
      (List.fold_left
         (fun h (ts, op) -> Fcsl_pcm.Hist.add ts (Fcsl_pcm.Hist.entry op) h)
         Fcsl_pcm.Hist.empty stamps)
  in
  match i with
  | 0 -> Aux.Unit
  | 1 -> Aux.nat 0
  | 2 -> Aux.nat 1
  | 3 -> Aux.set Ptr.Set.empty
  | 4 -> Aux.set_of_list [ p 1 ]
  | 5 -> hist []
  | 6 -> hist [ (1, "push"); (2, "pop") ]
  | 7 -> hist [ (2, "pop"); (1, "push") ]
  | 8 -> hist [ (1, "push") ]
  | 9 -> Aux.heap Heap.empty
  | 10 -> Aux.pair (Aux.nat 0) Aux.Unit
  | _ -> Aux.pair (Aux.nat 1) (hist [ (1, "push") ])

let n_aux = 12
let shared_aux = Array.init n_aux aux_value

(* A binding: label index, value index, and whether the value is the
   shared copy (physically equal across contributions) or a fresh one. *)
let contrib_of bindings =
  List.fold_left
    (fun c (l, v, shared) ->
      Contrib.set contrib_labels.(l)
        (if shared then shared_aux.(v) else aux_value v)
        c)
    Contrib.empty bindings

let gen_contrib_pair =
  let open QCheck2.Gen in
  let binding = triple (0 -- 2) (0 -- (n_aux - 1)) bool in
  let* b1 = list_size (0 -- 4) binding in
  frequency
    [
      (1, map (fun b2 -> (b1, b2)) (list_size (0 -- 4) binding));
      (* derived from [b1]: per binding keep it, copy its value afresh,
         drop it, or shift the value; then maybe one extra binding *)
      ( 3,
        map
        (fun (ops, extra) ->
          let b2 =
            List.concat
              (List.map2
                 (fun (l, v, s) op ->
                   match op with
                   | 0 -> [ (l, v, s) ]
                   | 1 -> [ (l, v, false) ]
                   | 2 -> []
                   | k -> [ (l, (v + k - 2) mod n_aux, s) ])
                 b1 ops)
          in
          (b1, b2 @ extra))
        (pair
           (list_repeat (List.length b1)
              (frequencyl [ (3, 0); (3, 1); (1, 2); (1, 3); (1, 4) ]))
           (frequency [ (3, return []); (1, map (fun b -> [ b ]) binding) ]))
      );
    ]

let prop_contrib_equal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000
       ~name:"Contrib.equal = set-union model; equal implies equal hash"
       ~print:
         QCheck2.Print.(
           pair
             (list (triple int int bool))
             (list (triple int int bool)))
       gen_contrib_pair
       (fun (b1, b2) ->
         let c1 = contrib_of b1 and c2 = contrib_of b2 in
         let model = contrib_equal_model c1 c2 in
         Contrib.equal c1 c2 = model
         && Contrib.equal c2 c1 = model
         && Contrib.equal c1 c1
         && ((not model) || Contrib.hash c1 = Contrib.hash c2)))

(* ------------------------------------------------------------------ *)
(* Registry differential against the pre-rewrite engine.              *)
(* ------------------------------------------------------------------ *)

(* Per row, two pinned count sets.  First, explored states of the
   un-memoized (naive) engine, recorded before the engine's
   representation rewrite: no change to the engine may move a single
   count.  Second, the default memoized engine's states, memo hits and
   memo misses, read off [fcsl table1 --stats] before configuration
   keying became incremental: how a key is built may change, which
   configurations it identifies may not. *)
let baseline =
  [
    ("CAS-lock", 960, (800, 112, 616));
    ("Ticketed lock", 27472, (14400, 5432, 8744));
    ("CG increment", 28432, (15200, 5544, 9360));
    ("CG allocator", 104904, (31635, 10305, 19695));
    ("Pair snapshot", 53355, (14757, 3471, 8764));
    ("Treiber stack", 583938, (39933, 10432, 25815));
    ("Spanning tree", 9172, (861, 195, 497));
    ("Flat combiner", 86990, (8223, 2218, 5257));
    ("Seq. stack", 16, (16, 0, 15));
    ("FC-stack", 53624, (787, 304, 459));
    ("Prod/Cons", 547, (58, 15, 41));
  ]

let find_case name =
  match Registry.find name with
  | Some c -> c
  | None -> Alcotest.fail (name ^ " not in registry")

let verdicts reports =
  List.map (fun r -> (r.Verify.spec_name, Verify.ok r)) reports

let states reports =
  List.fold_left (fun acc r -> acc + r.Verify.states) 0 reports

let test_baseline_differential () =
  List.iter
    (fun jobs ->
      List.iter
        (fun (name, full_expected, _) ->
          let case = find_case name in
          let full =
            Verify.with_engine ~dedup:false ~jobs (fun () ->
                case.Registry.c_verify ())
          in
          check
            (Printf.sprintf "%s (-j %d): all verdicts ok" name jobs)
            true
            (List.for_all (fun (_, ok) -> ok) (verdicts full));
          Alcotest.(check int)
            (Printf.sprintf "%s (-j %d): full states = baseline" name jobs)
            full_expected (states full))
        baseline)
    [ 1; 4 ]

let test_memo_counters () =
  List.iter
    (fun (name, _, (states_expected, hits_expected, misses_expected)) ->
      let reports =
        Verify.with_engine ~dedup:true ~jobs:1 (fun () ->
            (find_case name).Registry.c_verify ())
      in
      let hits, misses =
        List.fold_left
          (fun (h, m) r ->
            match r.Verify.expl with
            | Some x -> (h + x.Verify.x_memo_hits, m + x.Verify.x_memo_misses)
            | None -> (h, m))
          (0, 0) reports
      in
      check (name ^ ": all verdicts ok") true
        (List.for_all (fun (_, ok) -> ok) (verdicts reports));
      Alcotest.(check (list int))
        (name ^ ": memoized states / hits / misses = baseline")
        [ states_expected; hits_expected; misses_expected ]
        [ states reports; hits; misses ])
    baseline

let suite =
  [
    Alcotest.test_case "ghash invariant on span configurations" `Quick
      test_ghash_span;
    Alcotest.test_case "ghash invariant on snapshot configurations" `Quick
      test_ghash_snapshot;
    Alcotest.test_case "incremental keys = from-scratch keys (span, hide)"
      `Quick test_incremental_keys_span;
    Alcotest.test_case "incremental keys = from-scratch keys (snapshot)"
      `Quick test_incremental_keys_snapshot;
    Alcotest.test_case "incremental keys = from-scratch keys (Treiber)"
      `Quick test_incremental_keys_treiber;
    prop_contrib_equal;
    Alcotest.test_case "registry states identical to pre-rewrite engine" `Slow
      test_baseline_differential;
    Alcotest.test_case "memoized engine counters pinned (-j 1)" `Slow
      test_memo_counters;
  ]
