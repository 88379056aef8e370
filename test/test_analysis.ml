(* The static analyzer: the footprint domain and its inference over the
   DSL, the annotation-narrowing check, the surface race detector, the
   spec/concurroid lints, and the independence analysis's PCM-law
   certificates. *)

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
  Action.make ~name:(fun () -> name) ~fp
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

module Aux = Fcsl_pcm.Aux

(* ------------------------------------------------------------------ *)
(* Certified pairs really commute: QCheck over the coherent states.   *)
(* ------------------------------------------------------------------ *)

(* Each certified case paired with its name-indexed action inventory:
   the sampling domain for the commutation property. *)
let certed_cases =
  lazy
    (List.filter_map
       (fun (m : Independence.matrix) ->
         if m.Independence.x_certs = [] then None
         else
           match Independence.inventory_of_case m.Independence.x_case with
           | None -> None
           | Some inv ->
             let by_name =
               List.map
                 (function
                   | Independence.Any a as any -> (Action.name a, any))
                 inv.Independence.i_actions
             in
             Some (m, inv.Independence.i_states, by_name))
       (Independence.analyze_all ()))

let prop_certs_commute =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"certified pairs commute on coherent states"
       QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 10_000) (int_range 0 10_000))
       (fun (ci, pi, si) ->
         match Lazy.force certed_cases with
         | [] -> QCheck2.Test.fail_report "no certified cases in the registry"
         | cases ->
           let m, states, by_name = List.nth cases (ci mod List.length cases) in
           let certs = m.Independence.x_certs in
           let a_name, b_name = List.nth certs (pi mod List.length certs) in
           let st = List.nth states (si mod List.length states) in
           let act n =
             match List.assoc_opt n by_name with
             | Some a -> a
             | None ->
               Alcotest.failf "%s: certified name %s not in inventory"
                 m.Independence.x_case n
           in
           (match Independence.commute_sample (act a_name) (act b_name) st with
           | Independence.Refuted why ->
             QCheck2.Test.fail_reportf "%s: certified pair (%s, %s) refuted: %s"
               m.Independence.x_case a_name b_name why
           | Independence.Pass | Independence.Skip -> ());
           true))

(* The certificate's own bar: every certified pair has at least
   [min_witnesses] Pass states in its case's enumeration. *)
let test_cert_witnesses () =
  List.iter
    (fun (m, states, by_name) ->
      List.iter
        (fun (a_name, b_name) ->
          let a = List.assoc a_name by_name and b = List.assoc b_name by_name in
          let passes =
            List.fold_left
              (fun acc st ->
                match Independence.commute_sample a b st with
                | Independence.Pass -> acc + 1
                | Independence.Skip -> acc
                | Independence.Refuted why ->
                  Alcotest.failf "%s: (%s, %s) refuted: %s"
                    m.Independence.x_case a_name b_name why)
              0 states
          in
          check
            (Fmt.str "%s: (%s, %s) has >= %d witnesses" m.Independence.x_case
               a_name b_name Independence.min_witnesses)
            true
            (passes >= Independence.min_witnesses))
        m.Independence.x_certs)
    (Lazy.force certed_cases)

(* ------------------------------------------------------------------ *)
(* Footprint algebra: canonical of_list, hide-under-par, join laws.   *)
(* ------------------------------------------------------------------ *)

let test_of_list_canonical () =
  let l = Label.make "por_fp_a" and l2 = Label.make "por_fp_b" in
  check "empty access list is bot" true
    (Footprint.equal (Footprint.of_list [ (l, []) ]) Footprint.bot);
  check "phantom label absent" false
    (Footprint.mem (Footprint.of_list [ (l, []); (l2, [ Footprint.Read ]) ]) l);
  check "repeated labels join" true
    (Footprint.equal
       (Footprint.of_list [ (l, [ Footprint.Read ]); (l, [ Footprint.Write ]) ])
       (Footprint.of_list [ (l, [ Footprint.Read; Footprint.Write ]) ]))

(* Regression: a [hide] nested under [par] scopes its installed label
   away from the join, and the result is structurally canonical — equal
   to building the same envelope directly. *)
let test_hide_under_par () =
  let hidden = Label.make "por_fp_hidden" in
  let outer = Label.make "por_fp_outer" in
  let priv = Label.make "por_fp_priv" in
  let hs : Prog.hide_spec =
    {
      hs_priv = priv;
      hs_conc = Span.concurroid hidden;
      hs_decor = Fun.id;
      hs_init = Aux.set Ptr.Set.empty;
      hs_jaux = Aux.set Ptr.Set.empty;
    }
  in
  let body = Prog.act (Span.trymark hidden (p 1)) in
  let peer = Prog.act (Span.trymark outer (p 2)) in
  let fp = Prog.footprint (Prog.par (Prog.hide hs body) peer) in
  check "hidden label scoped away" false (Footprint.mem fp hidden);
  check "peer label survives" true (Footprint.mem fp outer);
  check "donating private label touched" true (Footprint.mem fp priv);
  check "equals the directly built envelope" true
    (Footprint.equal fp
       (Footprint.join (Footprint.writes priv)
          (Footprint.join
             (Footprint.remove (Prog.footprint body) hidden)
             (Prog.footprint peer))));
  (* and the par join is symmetric *)
  check "par join symmetric" true
    (Footprint.equal fp
       (Prog.footprint (Prog.par peer (Prog.hide hs body))))

let fp_pool = lazy (Array.init 4 (fun i -> Label.make (Fmt.str "por_fp_p%d" i)))

let gen_fp =
  let open QCheck2.Gen in
  let accesses =
    oneofl
      [
        [];
        [ Footprint.Read ];
        [ Footprint.Read; Footprint.Write ];
        [ Footprint.Read; Footprint.Cas ];
        [ Footprint.Read; Footprint.Write; Footprint.Cas ];
      ]
  in
  list_size (int_range 0 4) (pair (int_range 0 3) accesses) >|= fun bindings ->
  let pool = Lazy.force fp_pool in
  Footprint.of_list (List.map (fun (i, a) -> (pool.(i), a)) bindings)

let prop_join_laws =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"footprint join commutative + idempotent"
       QCheck2.Gen.(triple gen_fp gen_fp gen_fp)
       (fun (a, b, c) ->
         Footprint.equal (Footprint.join a b) (Footprint.join b a)
         && Footprint.equal (Footprint.join a a) a
         && Footprint.equal
              (Footprint.join a (Footprint.join b c))
              (Footprint.join (Footprint.join a b) c)
         && Bool.equal (Footprint.commutes a b) (Footprint.commutes b a)))

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
    prop_certs_commute;
    Alcotest.test_case "certificates have enough witnesses" `Quick
      test_cert_witnesses;
    Alcotest.test_case "of_list is canonical" `Quick test_of_list_canonical;
    Alcotest.test_case "hide under par scopes the label away" `Quick
      test_hide_under_par;
    prop_join_laws;
  ]
