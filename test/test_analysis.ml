(* The static analyzer: the footprint domain and its inference over the
   DSL, the annotation-narrowing check, the surface race detector, and
   the spec/concurroid lints. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
open Fcsl_analysis

let check = Alcotest.(check bool)
let p = Ptr.of_int

let has_substr ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- The footprint domain. --- *)

let l1 = Label.make "an_t_l1"
let l2 = Label.make "an_t_l2"

let test_footprint_domain () =
  let fp_eq = Alcotest.(check bool) in
  fp_eq "bot is unit" true
    (Footprint.equal (Footprint.join Footprint.bot (Footprint.reads l1))
       (Footprint.reads l1));
  fp_eq "top absorbs" true
    (Footprint.is_top (Footprint.join Footprint.top (Footprint.writes l1)));
  fp_eq "top subsumes everything" true
    (Footprint.subsumes Footprint.top (Footprint.touches l1));
  fp_eq "touches subsumes reads" true
    (Footprint.subsumes (Footprint.touches l1) (Footprint.reads l1));
  fp_eq "reads does not subsume writes" false
    (Footprint.subsumes (Footprint.reads l1) (Footprint.writes l1));
  fp_eq "remove deletes the label" true
    (Footprint.equal
       (Footprint.remove
          (Footprint.join (Footprint.touches l1) (Footprint.reads l2))
          l1)
       (Footprint.reads l2));
  (match Footprint.labels (Footprint.join (Footprint.reads l1) (Footprint.writes l2)) with
  | Some ls ->
    fp_eq "labels of a join" true
      (Label.Set.equal ls (Label.Set.of_list [ l1; l2 ]))
  | None -> Alcotest.fail "expected a known label set");
  fp_eq "top has no label set" true (Footprint.labels Footprint.top = None);
  fp_eq "mem" true (Footprint.mem (Footprint.cases l1) l1);
  fp_eq "mem misses" false (Footprint.mem (Footprint.cases l1) l2)

(* --- Inference over the DSL spine. --- *)

let idle_act ?(fp = Footprint.top) name =
  Action.make ~name ~fp
    ~safe:(fun _ -> true)
    ~step:(fun st -> ((), st))
    ~phys:(fun _ -> Action.Id)
    ()

let test_prog_footprint () =
  let r1 = Prog.act (idle_act ~fp:(Footprint.reads l1) "r1") in
  let w2 = Prog.act (idle_act ~fp:(Footprint.writes l2) "w2") in
  check "action leaf carries its envelope" true
    (Footprint.equal (Prog.footprint r1) (Footprint.reads l1));
  check "par joins the arms" true
    (Footprint.equal
       (Prog.footprint (Prog.par r1 w2))
       (Footprint.join (Footprint.reads l1) (Footprint.writes l2)));
  check "bind is opaque" true
    (Footprint.is_top (Prog.footprint (Prog.bind r1 (fun () -> w2))));
  check "annot overrides" true
    (Footprint.equal
       (Prog.footprint
          (Prog.annot (Footprint.reads l1) (Prog.bind r1 (fun () -> w2))))
       (Footprint.reads l1));
  (* The annotated case studies expose their envelopes. *)
  check "span's program envelope" true
    (Footprint.equal
       (Prog.footprint (Span.span l1 (p 1)))
       (Footprint.touches l1));
  check "read_pair's program envelope" true
    (Footprint.equal
       (Prog.footprint (Snapshot.read_pair l1))
       (Footprint.reads l1))

let test_annot_checker () =
  check "honest annotations pass" true
    (Dsl.check_annots ~loc:"span" (Span.span l1 (p 1)) = []);
  let lying =
    Prog.annot (Footprint.reads l1)
      (Prog.act (idle_act ~fp:(Footprint.writes l2) "w2"))
  in
  match Dsl.check_annots ~loc:"liar" lying with
  | [ f ] ->
    Alcotest.(check string) "rule" "annot-narrowing" f.Diag.f_rule;
    check "is an error" true (f.Diag.f_severity = Diag.Error)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* --- The surface race detector. --- *)

let test_surface_clean () =
  List.iter
    (fun (name, src) ->
      match Surface.analyze_source ~name src with
      | Ok [] -> ()
      | Ok fs ->
        Alcotest.failf "%s: unexpected findings:@.%a" name Diag.pp_list fs
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    [
      ("span", Fcsl_lang.Examples.span_source);
      ("mark_children", Fcsl_lang.Examples.mark_children_source);
    ]

let test_surface_race () =
  match Injected.span_nocas_findings () with
  | [] -> Alcotest.fail "span_nocas not flagged"
  | fs ->
    List.iter
      (fun f ->
        Alcotest.(check string) "rule" "par-race" f.Diag.f_rule;
        check "locates the par" true (has_substr ~sub:"span_nocas" f.Diag.f_loc);
        check "names both arms" true (List.length f.Diag.f_detail >= 3))
      fs

(* --- Injected variants and registered case studies. --- *)

let test_injected_all_flagged () =
  List.iter
    (fun (name, fs) ->
      check (name ^ " flagged") true (Diag.has_errors fs))
    (Injected.all_variants ())

let test_cases_clean () =
  List.iter
    (fun (name, fs) ->
      if fs <> [] then
        Alcotest.failf "%s: unexpected findings:@.%a" name Diag.pp_list fs)
    (Cases.analyze_all ());
  Alcotest.(check int) "eleven rows" 11 (List.length (Cases.analyze_all ()))

(* --- Lints. --- *)

let test_dead_labels () =
  let w =
    World.of_list [ Snapshot.concurroid l1; Span.concurroid l2 ]
  in
  match Lint.dead_labels w ~used:(Footprint.reads l1) with
  | [ f ] ->
    Alcotest.(check string) "rule" "dead-label" f.Diag.f_rule;
    check "names the dead label" true (has_substr ~sub:"an_t_l2" f.Diag.f_loc)
  | fs -> Alcotest.failf "expected one dead label, got %d" (List.length fs)

let test_hide_lints () =
  let pv = Label.make "an_t_pv" and sp = Label.make "an_t_sp" in
  let prog = Span.span_root ~pv ~sp (p 1) in
  let clean_w = World.of_list [ Priv.make pv ] in
  check "fresh hide label is clean of collisions" true
    (List.for_all
       (fun f -> f.Diag.f_rule <> "hide-label-collision")
       (Lint.hide_lints ~loc:"span_root" clean_w prog));
  let clash_w = World.of_list [ Priv.make pv; Span.concurroid sp ] in
  check "ambient label collision detected" true
    (List.exists
       (fun f -> f.Diag.f_rule = "hide-label-collision")
       (Lint.hide_lints ~loc:"span_root" clash_w prog))

let suite =
  [
    Alcotest.test_case "footprint domain" `Quick test_footprint_domain;
    Alcotest.test_case "DSL footprint inference" `Quick test_prog_footprint;
    Alcotest.test_case "annotation narrowing lint" `Quick test_annot_checker;
    Alcotest.test_case "surface: shipped sources clean" `Quick
      test_surface_clean;
    Alcotest.test_case "surface: span without CAS flagged" `Quick
      test_surface_race;
    Alcotest.test_case "all injected variants flagged" `Quick
      test_injected_all_flagged;
    Alcotest.test_case "all Table 1 rows clean" `Quick test_cases_clean;
    Alcotest.test_case "dead-label lint" `Quick test_dead_labels;
    Alcotest.test_case "hide lints" `Quick test_hide_lints;
  ]
