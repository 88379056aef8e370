(* Tests of the benchmark harness's own logic: the percentile rule,
   failure classification, span self time and reconciliation, and the
   expected-verdict table. *)

open Perfbench
module Client = Fcsl_service.Client
module Json = Fcsl_service.Json

let floats = List.map float_of_int

let test_percentile () =
  let xs = floats [ 5; 1; 4; 2; 3; 6; 7; 8; 9; 10 ] in
  Alcotest.(check (float 0.)) "p50 of 1..10" 5. (Stats.percentile 50. xs);
  Alcotest.(check (float 0.)) "p90 of 1..10" 9. (Stats.percentile 90. xs);
  Alcotest.(check (float 0.)) "p100 is the max" 10. (Stats.percentile 100. xs);
  Alcotest.(check (float 0.)) "p0 is the min" 1. (Stats.percentile 0. xs);
  Alcotest.(check (float 0.)) "one sample" 7. (Stats.median [ 7. ]);
  (* nearest rank returns an observed sample, never an interpolation *)
  Alcotest.(check (float 0.)) "even count" 2. (Stats.median [ 1.; 2.; 3.; 4. ])

let test_tail_rule () =
  let tail n = Stats.tail_percentile n in
  let p = Alcotest.(option (float 0.)) in
  Alcotest.check p "19 samples support no tail" None (tail 19);
  Alcotest.check p "20 samples: p50" (Some 50.) (tail 20);
  Alcotest.check p "39 samples: p50" (Some 50.) (tail 39);
  Alcotest.check p "40 samples: p75" (Some 75.) (tail 40);
  Alcotest.check p "99 samples: p75" (Some 75.) (tail 99);
  Alcotest.check p "100 samples: p90" (Some 90.) (tail 100);
  Alcotest.check p "199 samples: p90" (Some 90.) (tail 199);
  Alcotest.check p "200 samples: p95" (Some 95.) (tail 200);
  Alcotest.check p "1000 samples: p99" (Some 99.) (tail 1000);
  Alcotest.check p "10000 samples: p99.9" (Some 99.9) (tail 10000);
  (* the rule's promise: at least ten samples lie beyond the tail *)
  List.iter
    (fun n ->
      match tail n with
      | None -> ()
      | Some pct ->
        let xs = List.init n float_of_int in
        let v = Stats.percentile pct xs in
        let beyond = List.length (List.filter (fun x -> x > v) xs) in
        if beyond < 10 then
          Alcotest.failf "n=%d: p%g has only %d samples beyond it" n pct beyond)
    (List.init 300 (fun i -> i + 1))

let failure =
  Alcotest.testable
    (fun ppf f -> Format.pp_print_string ppf (Outcome.describe f))
    ( = )

let test_classify_errors () =
  let c e = Outcome.of_submit_error e in
  Alcotest.check failure "shed" (Outcome.Shed "queue-full")
    (c (Client.Shed "queue-full"));
  Alcotest.check failure "timeout" Outcome.Timeout
    (c (Client.Transport "timeout waiting for a frame"));
  Alcotest.check failure "closed socket"
    (Outcome.Transport "server closed the connection")
    (c (Client.Transport "server closed the connection"));
  let crash = Fcsl_core.Crash.make Fcsl_core.Crash.Protocol_error "unknown case" in
  Alcotest.check failure "error frame"
    (Outcome.Error_frame (Fcsl_core.Crash.message crash))
    (c (Client.Server_error crash))

let test_classify_verdicts () =
  let v ?(got_case = "Treiber stack") ?(cancelled = false) qos status =
    Outcome.of_verdict ~case:"Treiber stack" ~qos ~got_case ~cancelled ~status
  in
  let ok r = match r with Ok () -> true | Error _ -> false in
  let wrong r =
    match r with Error f -> Outcome.is_wrong_verdict f | Ok () -> false
  in
  Alcotest.(check bool) "gold conclusive" true (ok (v "gold" 0));
  Alcotest.(check bool) "silver conclusive" true (ok (v "silver" 0));
  Alcotest.(check bool) "bronze conclusive" true (ok (v "bronze" 0));
  Alcotest.(check bool) "bronze degraded" true (ok (v "bronze" 2));
  Alcotest.(check bool) "gold degraded is wrong" true (wrong (v "gold" 2));
  Alcotest.(check bool) "bronze refuted is wrong" true (wrong (v "bronze" 1));
  Alcotest.(check bool) "bronze engine loss is wrong" true (wrong (v "bronze" 3));
  Alcotest.(check bool) "other case is wrong" true
    (wrong (v ~got_case:"Seq. stack" "gold" 0));
  Alcotest.(check bool) "cancelled is wrong" true (wrong (v ~cancelled:true "gold" 0));
  Alcotest.(check bool) "row exit 0" true
    (ok (Outcome.of_row ~case:"Pair snapshot" ~exit_code:0));
  Alcotest.(check bool) "row exit 1 is wrong" true
    (wrong (Outcome.of_row ~case:"Pair snapshot" ~exit_code:1))

let test_expected_table () =
  Alcotest.(check int) "every Table 1 row" 11 (List.length Expected.table);
  List.iter
    (fun (r : Expected.row) ->
      Alcotest.(check int) (r.case ^ " exits 0") 0 r.exit;
      match Fcsl_report.Registry.find r.case with
      | Some _ -> ()
      | None -> Alcotest.failf "%s is not a registry row" r.case)
    Expected.table;
  Alcotest.(check bool) "unknown row" true
    (Result.is_error (Expected.check_exit ~case:"No such row" 0));
  Alcotest.(check bool) "silver degraded" true
    (Result.is_error (Expected.check_service ~case:"CAS-lock" ~qos:"silver" 2))

let span ?parent id name start stop =
  {
    Spans.id;
    parent;
    name;
    job = None;
    tid = 0;
    start;
    stop;
    args = [];
  }

let test_self_time () =
  let parent = span 1 "pass" 0. 10. in
  let kids =
    [
      span ~parent:1 2 "verify.row" 1. 3.;
      span ~parent:1 3 "verify.row" 2. 5.;  (* overlaps its sibling *)
      span ~parent:1 4 "verify.row" 7. 8.;
      span ~parent:1 5 "verify.row" 9.5 12.;  (* runs past the parent *)
    ]
  in
  let children = Spans.children_index (parent :: kids) in
  Alcotest.(check (float 1e-9)) "self time" 4.5 (Spans.self_time ~children parent);
  Alcotest.(check (float 1e-9)) "leaf self time is its duration" 2.
    (Spans.self_time ~children (List.hd kids))

let test_reconcile () =
  let spans =
    [
      span 1 "client.submit" 0. 1.;
      span ~parent:1 2 "server.admit" 0. 0.01;
      span ~parent:1 3 "server.run" 0.01 0.97;
      span 4 "client.submit" 2. 3.;
      span ~parent:4 5 "server.admit" 2. 2.5;
      span ~parent:4 6 "server.run" 2.5 3.;
      span ~parent:4 7 "progress" 2.6 2.6;
    ]
  in
  let n, gap =
    Spans.reconcile spans ~parent:"client.submit" ~parts:[ "server.admit"; "server.run" ]
  in
  Alcotest.(check int) "parents" 2 n;
  (* 1.97 s of layers under 2 s of submissions *)
  Alcotest.(check (float 1e-9)) "gap" 0.015 gap

let test_chrome () =
  let t = Spans.create ~enabled:true in
  let id = Spans.fresh_id t in
  Spans.record t ~parent:id ~job:7 "server.admit" ~start:1.0 ~stop:1.5;
  Spans.instant t ~parent:id ~job:7 "progress" ~at:1.2 ~args:[ ("states", Spans.I 3) ];
  Spans.record t ~id ~job:7 "client.submit" ~start:1.0 ~stop:2.0;
  let off = Spans.create ~enabled:false in
  Spans.record off "ignored" ~start:0. ~stop:1.;
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Spans.spans off));
  match Json.parse (Json.to_string (Spans.to_chrome t)) with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    match Option.bind (Json.member "traceEvents" v) Json.to_list with
    | None -> Alcotest.fail "no traceEvents"
    | Some evs ->
      let ph e = Option.bind (Json.member "ph" e) Json.to_str in
      Alcotest.(check (list (option string)))
        "two spans then an instant"
        [ Some "X"; Some "X"; Some "i" ]
        (List.map ph evs);
      let dur e = Option.bind (Json.member "dur" e) Json.to_float in
      Alcotest.(check (option (float 1e-6))) "microseconds" (Some 500000.)
        (dur (List.hd evs)))

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench-stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
        ] );
      ( "perfbench-outcome",
        [
          Alcotest.test_case "submit errors" `Quick test_classify_errors;
          Alcotest.test_case "verdicts" `Quick test_classify_verdicts;
          Alcotest.test_case "expected table" `Quick test_expected_table;
        ] );
      ( "perfbench-spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "reconciliation" `Quick test_reconcile;
          Alcotest.test_case "chrome trace" `Quick test_chrome;
        ] );
    ]
