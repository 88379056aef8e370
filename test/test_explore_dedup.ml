(* Memoized exploration is exact: [Sched.explore ~dedup:true] reports
   the same outcome multiset, completeness verdict, and crash set as the
   naive search (crash messages may differ only in their first-discovery
   schedule annotation), configuration keys identify the diamonds of
   commuting steps, and [Verify.check_triple] under
   [Verify.with_engine ~jobs] reproduces the sequential report. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux

let check = Alcotest.(check bool)
let p = Ptr.of_int

(* Crash messages carry " [schedule: ...]" annotations whose text keeps
   the first-discovery trace under memoization; strip them before
   comparing crash sets. *)
let strip_sched msg =
  let marker = " [schedule:" in
  let ml = String.length marker in
  let n = String.length msg in
  let rec find i =
    if i + ml > n then msg
    else if String.sub msg i ml = marker then String.sub msg 0 i
    else find (i + 1)
  in
  find 0

(* Canonical multiset of outcomes: a sorted list of rendered outcomes
   (final subjective states render semantically via [State.pp]). *)
let canon show (outs : 'a Sched.outcome list) : string list =
  List.sort String.compare
    (List.map
       (function
         | Sched.Finished (r, st) -> Fmt.str "F|%s|%a" (show r) State.pp st
         | Sched.Crashed c -> "C|" ^ strip_sched (Fmt.str "%a" Crash.pp c)
         | Sched.Diverged -> "D")
       outs)

(* Explore twice — naive and memoized — and demand identical canonical
   multisets and completeness. *)
let equiv ?(fuel = 12) ?(env_budget = 1) ~interference ~show w st prog =
  let interfere = World.labels w in
  let genv, mine = Sched.genv_of_state ~interfere w st in
  let naive, c_naive =
    Sched.explore ~fuel ~interference ~env_budget ~dedup:false genv mine prog
  in
  let genv, mine = Sched.genv_of_state ~interfere w st in
  let memo, c_memo =
    Sched.explore ~fuel ~interference ~env_budget ~dedup:true genv mine prog
  in
  Alcotest.(check bool) "completeness agrees" c_naive c_memo;
  Alcotest.(check (list string))
    "outcome multisets agree" (canon show naive) (canon show memo)

(* Spanning-tree trymark races, with and without interference. *)

let span_setup triples =
  let sp = Label.make "dedup_span" in
  let conc = Span.concurroid sp in
  let w = World.of_list [ conc ] in
  let g = Graph_catalog.graph_of triples in
  let st =
    State.singleton sp
      (Slice.make ~self:(Aux.set Ptr.Set.empty) ~joint:(Graph.to_heap g)
         ~other:(Aux.set Ptr.Set.empty))
  in
  (sp, w, st)

let test_span_race () =
  let sp, w, st = span_setup [ (p 1, Ptr.null, Ptr.null) ] in
  let race =
    Prog.par (Prog.act (Span.trymark sp (p 1))) (Prog.act (Span.trymark sp (p 1)))
  in
  let show (a, b) = Fmt.str "(%b,%b)" a b in
  equiv ~fuel:16 ~interference:false ~show w st race;
  equiv ~fuel:8 ~env_budget:1 ~interference:true ~show w st race

let test_span_program () =
  let sp, w, st =
    span_setup [ (p 1, p 2, p 3); (p 2, Ptr.null, Ptr.null); (p 3, Ptr.null, Ptr.null) ]
  in
  equiv ~fuel:14 ~interference:false ~show:string_of_bool w st (Span.span sp (p 1))

(* CG increment (CAS lock): the lock/read/write/unlock cycles generate
   deep commuting diamonds under interference. *)
let test_cg_incr () =
  let module C = Cg_incr.Cas in
  let w = C.world () in
  let show ((), ()) = "((),())" in
  List.iter
    (fun st ->
      equiv ~fuel:10 ~env_budget:1 ~interference:true ~show w st
        (C.incr_pair C.label))
    (C.init_states ())

(* Pair snapshot: histories + versioned cells through Hist/Aux hashing. *)
let test_snapshot () =
  let w = Snapshot.world () in
  let show (a, b) = Fmt.str "(%d,%d)" a b in
  List.iter
    (fun st ->
      equiv ~fuel:12 ~env_budget:2 ~interference:true ~show w st
        (Snapshot.read_pair Snapshot.sp_label))
    (Snapshot.init_states ())

(* Crash paths: the unchecked snapshot read must be refuted identically
   by both engines — same failure count, same stripped crash reasons,
   same accounting. *)
let test_crash_set () =
  let rn =
    Verify.with_engine ~dedup:false (fun () -> Snapshot.refute_unchecked ())
  in
  let rm =
    Verify.with_engine ~dedup:true (fun () -> Snapshot.refute_unchecked ())
  in
  check "naive refutes" false (Verify.ok rn);
  check "memo refutes" false (Verify.ok rm);
  Alcotest.(check int) "initial states" rn.Verify.initial_states
    rm.Verify.initial_states;
  Alcotest.(check int) "outcomes" rn.Verify.outcomes rm.Verify.outcomes;
  Alcotest.(check int) "diverged" rn.Verify.diverged rm.Verify.diverged;
  check "complete" rn.Verify.complete rm.Verify.complete;
  let reasons r =
    List.sort String.compare
      (List.map
         (fun f -> strip_sched (Fmt.str "%a" Crash.pp f.Verify.crash))
         r.Verify.failures)
  in
  Alcotest.(check (list string)) "crash reasons" (reasons rn) (reasons rm)

(* The diamond itself: stepping two commuting trymarks in either order
   reaches configurations with equal keys under one keyer. *)
let test_config_key_diamond () =
  let sp, w, st =
    span_setup
      [ (p 1, p 2, p 3); (p 2, Ptr.null, Ptr.null); (p 3, Ptr.null, Ptr.null) ]
  in
  let prog =
    Prog.par (Prog.act (Span.trymark sp (p 2))) (Prog.act (Span.trymark sp (p 3)))
  in
  let genv, mine = Sched.genv_of_state w st in
  let step (genv, mine, rt) name =
    match Sched.normalize genv mine rt with
    | Sched.Norm_crash c -> Alcotest.failf "unexpected crash: %a" Crash.pp c
    | Sched.Norm (genv, mine, rt) -> (
      let mvs = Sched.moves genv Contrib.empty mine rt in
      match List.find_opt (fun mv -> Sched.move_name mv = name) mvs with
      | None -> Alcotest.failf "move %s not enabled" name
      | Some mv -> (
        match Sched.move_next mv with
        | Ok c -> c
        | Error c -> Alcotest.failf "move %s failed: %a" name Crash.pp c))
  in
  let start = (genv, mine, Sched.inject prog) in
  let g1, m1, rt1 = step (step start "trymark(x2)") "trymark(x3)" in
  let g2, m2, rt2 = step (step start "trymark(x3)") "trymark(x2)" in
  let keyer = Sched.new_keyer () in
  let k1 = Sched.config_key keyer g1 m1 rt1 in
  let k2 = Sched.config_key keyer g2 m2 rt2 in
  check "diamond keys equal" true (Sched.config_key_equal k1 k2);
  Alcotest.(check int) "diamond hashes equal" (Sched.config_key_hash k1)
    (Sched.config_key_hash k2);
  Alcotest.(check int) "fingerprints equal"
    (Sched.fingerprint keyer g1 m1 rt1)
    (Sched.fingerprint keyer g2 m2 rt2)

(* Parallel verification returns the sequential report, bit for bit. *)
let test_jobs_equal () =
  let same_report name (seq : Verify.report) (par : Verify.report) =
    Alcotest.(check string) (name ^ " spec") seq.Verify.spec_name par.Verify.spec_name;
    Alcotest.(check int) (name ^ " initial") seq.Verify.initial_states
      par.Verify.initial_states;
    Alcotest.(check int) (name ^ " outcomes") seq.Verify.outcomes par.Verify.outcomes;
    Alcotest.(check int) (name ^ " diverged") seq.Verify.diverged par.Verify.diverged;
    check (name ^ " complete") seq.Verify.complete par.Verify.complete;
    Alcotest.(check (list string))
      (name ^ " failures")
      (List.map
         (fun f -> Fmt.str "%a" Crash.pp f.Verify.crash)
         seq.Verify.failures)
      (List.map
         (fun f -> Fmt.str "%a" Crash.pp f.Verify.crash)
         par.Verify.failures)
  in
  let module C = Cg_incr.Cas in
  let w = C.world () and init = C.init_states () in
  let run jobs =
    Verify.with_engine ~jobs @@ fun () ->
    Verify.check_triple ~fuel:12 ~env_budget:1 ~world:w ~init
      (C.incr_pair C.label) (C.incr_pair_spec C.label)
  in
  same_report "cg_incr" (run 1) (run 4);
  let w = Snapshot.world () and init = Snapshot.init_states () in
  let run jobs =
    Verify.with_engine ~jobs @@ fun () ->
    Verify.check_triple ~fuel:14 ~env_budget:2 ~world:w ~init
      (Snapshot.read_pair Snapshot.sp_label)
      (Snapshot.read_pair_spec Snapshot.sp_label)
  in
  same_report "snapshot" (run 1) (run 4);
  (* and on a refuted spec: the early-stop accounting must also agree *)
  let run jobs =
    Verify.with_engine ~jobs @@ fun () ->
    Verify.check_triple ~fuel:14 ~env_budget:2 ~world:w ~init
      (Snapshot.read_pair_unchecked Snapshot.sp_label)
      (Snapshot.read_pair_spec Snapshot.sp_label)
  in
  same_report "snapshot-refute" (run 1) (run 4)

(* Random fuel / budget / initial state: memoized snapshot reads always
   agree with the naive search. *)
let prop_random_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"random dedup equivalence"
       QCheck2.Gen.(triple (int_range 4 12) (int_range 0 2) (int_range 0 1000))
       (fun (fuel, env_budget, seed) ->
         let w = Snapshot.world () in
         let init = Snapshot.init_states () in
         let st = List.nth init (seed mod List.length init) in
         let show (a, b) = Fmt.str "(%d,%d)" a b in
         equiv ~fuel ~env_budget ~interference:true ~show w st
           (Snapshot.read_pair Snapshot.sp_label);
         true))

let suite =
  [
    Alcotest.test_case "span race: dedup = naive" `Quick test_span_race;
    Alcotest.test_case "span program: dedup = naive" `Quick test_span_program;
    Alcotest.test_case "cg-incr: dedup = naive" `Quick test_cg_incr;
    Alcotest.test_case "snapshot: dedup = naive" `Quick test_snapshot;
    Alcotest.test_case "crash sets agree" `Quick test_crash_set;
    Alcotest.test_case "commuting-diamond keys" `Quick test_config_key_diamond;
    Alcotest.test_case "check_triple jobs=4 = sequential" `Quick test_jobs_equal;
    prop_random_equiv;
  ]
