(* The verification service (docs/SERVICE.md): the wire JSON layer,
   protocol parsing (malformed frames are structured protocol-error
   crashes, never exceptions), the journal's ledger lookup — including
   the torn-tail case, which must forget the verdict rather than serve
   a stale one — and the daemon end to end: cold vs memoized verdicts,
   memo hits answered beside a busy executor, concurrent same-digest
   dedup (one exploration, N identical verdicts), queue shedding,
   graceful drain, disconnect cancellation, and crash-safe resume of
   in-flight ledger jobs and of the verdict table. *)

open Fcsl_core
module Protocol = Fcsl_service.Protocol
module Server = Fcsl_service.Server
module Client = Fcsl_service.Client

let check = Alcotest.(check bool)

let tmp_base =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fcsl-test-service-%s-%d-%d" tag (Unix.getpid ()) !n)

let fresh_dir tag =
  let d = tmp_base tag in
  (* discard any leftover from a previous run of the same pid *)
  Journal.close (Journal.openj ~resume:false d);
  d

(* An in-process daemon on a fresh (or given) journal.  [jobs] stays 1:
   the service suite must not be the reason the test binary spawns
   domains. *)
let with_server ?(resume = false) ?queue_bound ?(job_delay_s = 0.)
    ?overload_high ?overload_low ?rate ?dir ~tag f =
  let dir = match dir with Some d -> d | None -> fresh_dir tag in
  let socket = tmp_base (tag ^ "-sock") ^ ".sock" in
  let cfg =
    Server.config ~resume ?queue_bound ~jobs:1 ~signals:false ~job_delay_s
      ?overload_high ?overload_low ?rate ~socket ~journal_dir:dir ()
  in
  let t = Server.create cfg in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
    (fun () ->
      check "daemon answers ping" true (Client.wait_ready ~socket ());
      f ~socket ~dir)

let failf fmt = Alcotest.failf fmt

(* The daemon's ledger spec for a gold submission: one per digest. *)
let ledger case = "job/" ^ Protocol.digest ~case ~qos:Protocol.Gold

(* Poll the journal on disk until some record satisfies [pred]. *)
let await_record ?(timeout_s = 60.) dir pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let records, _ = Journal.read dir in
    List.exists pred records
    || Unix.gettimeofday () < deadline
       && begin
            Thread.delay 0.05;
            go ()
          end
  in
  go ()

(* --- wire JSON ------------------------------------------------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Arr [ Json.Null; Json.Bool false; Json.Str "x\n\"\\y" ]);
        ("c", Json.Float 1.5);
        ("d", Json.Obj [ ("nested", Json.Int (-7)) ]);
        ("e", Json.Str "caf\xc3\xa9");
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> check "parse inverts to_string" true (v = v')
  | Error e -> failf "round-trip failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> failf "parsed garbage %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1, 2"; "tru"; "\"unterminated"; "{\"a\": }"; "{} trailing";
      "{'single': 1}"; "[1,]";
    ]

(* --- protocol requests ----------------------------------------------- *)

let test_request_round_trip () =
  List.iter
    (fun r ->
      let line = Json.to_string (Protocol.request_to_json r) in
      match Protocol.parse_request line with
      | Ok r' -> check "request round-trips" true (r = r')
      | Error c -> failf "parse of %s failed: %s" line (Crash.message c))
    [
      Protocol.Ping;
      Protocol.Status;
      Protocol.Drain;
      Protocol.Health;
      Protocol.Ready;
      Protocol.Cancel 7;
      Protocol.Submit { case = "CAS-lock"; qos = Protocol.Silver };
      Protocol.Submit { case = "Treiber stack"; qos = Protocol.Gold };
    ]

let test_request_malformed () =
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> failf "parsed malformed frame %S" line
      | Error c ->
        check "malformed frame is a protocol-error" true
          (Crash.kind c = Crash.Protocol_error))
    [
      "{"; "[1]"; "42"; "{\"op\": \"zap\"}"; "{\"op\": \"submit\"}";
      "{\"op\": \"submit\", \"case\": \"x\", \"qos\": \"pewter\"}";
      "{\"op\": \"cancel\"}"; "{\"no\": \"op\"}";
    ]

let test_digest () =
  let d = Protocol.digest ~case:"Treiber stack" ~qos:Protocol.Bronze in
  check "case recovered" true
    (Protocol.case_of_digest d = Some "Treiber stack");
  check "qos recovered" true (Protocol.qos_of_digest d = Some Protocol.Bronze);
  check "gold is unbounded" true
    (Budget.is_unlimited (Protocol.qos_limits Protocol.Gold));
  check "bronze is bounded" false
    (Budget.is_unlimited (Protocol.qos_limits Protocol.Bronze))

(* --- budget cancel probe --------------------------------------------- *)

let test_budget_cancel_probe () =
  let flag = ref false in
  let b = Budget.arm (Budget.limits ~cancel:(fun () -> !flag) ()) in
  Budget.tick b;
  check "not tripped while the probe is false" true (Budget.tripped b = None);
  flag := true;
  Budget.tick b;
  check "tripped on the next tick" true
    (Budget.tripped b = Some Budget.Cancelled);
  flag := false;
  Budget.tick b;
  check "the trip is sticky" true (Budget.tripped b = Some Budget.Cancelled)

(* --- journal ledger lookup ------------------------------------------- *)

let ledger_image ?(tier = "service") ~spec ~params () =
  {
    Journal.ri_spec = spec;
    ri_params = params;
    ri_tier = tier;
    ri_seed = None;
    ri_initial_states = 1;
    ri_outcomes = 2;
    ri_diverged = 0;
    ri_complete = true;
    ri_states = 3;
    ri_failures = [];
    ri_worker_crashes = [];
    ri_budget = None;
  }

let test_ledger_lookup () =
  let dir = fresh_dir "vod" in
  let digest = "case=X;qos=gold" in
  let j = Journal.openj ~resume:false dir in
  Journal.append j (Journal.Spec_begin { spec = "job/X"; params = digest });
  Journal.append j
    (Journal.Spec_done (ledger_image ~spec:"job/X" ~params:digest ()));
  Journal.flush j;
  (match Journal.find_spec_done j ~spec:"job/X" ~params:digest with
  | Some ri -> check "tier preserved" true (ri.Journal.ri_tier = "service")
  | None -> failf "journaled digest not found");
  check "other digests miss" true
    (Journal.find_spec_done j ~spec:"job/X" ~params:"case=X;qos=bronze"
    = None);
  Journal.close j;
  (* reopen and look up again: the memo must survive a restart *)
  let j = Journal.openj ~resume:true dir in
  check "memo survives a restart" true
    (Option.is_some (Journal.find_spec_done j ~spec:"job/X" ~params:digest));
  Journal.close j

(* A torn tail that eats the verdict record must make the lookup return
   [None] — re-exploration — never the stale (now non-durable) verdict. *)
let test_ledger_torn_tail () =
  let dir = fresh_dir "torn" in
  let digest = "case=Y;qos=gold" in
  let j = Journal.openj ~resume:false dir in
  Journal.append j (Journal.Spec_begin { spec = "job/Y"; params = digest });
  Journal.flush j;
  let before = (Unix.stat (Journal.wal_path dir)).Unix.st_size in
  Journal.append j
    (Journal.Spec_done (ledger_image ~spec:"job/Y" ~params:digest ()));
  Journal.flush j;
  Journal.close j;
  (* tear the verdict record: cut a few bytes into it *)
  let fd = Unix.openfile (Journal.wal_path dir) [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (before + 4);
  Unix.close fd;
  let j = Journal.openj ~resume:true dir in
  check "torn verdict is forgotten, not served" true
    (Journal.find_spec_done j ~spec:"job/Y" ~params:digest = None);
  Journal.close j

(* --- jobs-status JSON (the shared renderer) -------------------------- *)

let test_jobs_json_schema () =
  let records =
    [
      Journal.Spec_begin { spec = "done-spec"; params = "p1" };
      Journal.Spec_done (ledger_image ~tier:"exhaustive" ~spec:"done-spec"
                           ~params:"p1" ());
      Journal.Spec_begin { spec = "wip-spec"; params = "p2" };
    ]
  in
  let jobs = Journal.jobs_of_records records in
  match Json.parse (Protocol.jobs_to_json jobs) with
  | Error e -> failf "jobs JSON does not parse: %s" e
  | Ok v -> (
    check "schema_version" true
      (Option.bind (Json.member "schema_version" v) Json.to_int
      = Some Protocol.schema_version);
    match Option.bind (Json.member "jobs" v) Json.to_list with
    | Some ([ _; _ ] as js) ->
      let field k j = Option.bind (Json.member k j) Json.to_str in
      let row spec =
        match List.find_opt (fun j -> field "spec" j = Some spec) js with
        | Some j -> j
        | None -> failf "no job row for %s" spec
      in
      check "complete status" true
        (field "status" (row "done-spec") = Some "complete");
      check "in-flight status" true
        (field "status" (row "wip-spec") = Some "in-flight");
      check "units field present" true
        (Option.bind (Json.member "units" (row "done-spec")) Json.to_int
        <> None)
    | _ -> failf "expected exactly two job rows")

(* --- the daemon end to end ------------------------------------------- *)

(* Submit and time one job, submit to verdict. *)
let timed_submit ?qos cn ~case =
  let t0 = Unix.gettimeofday () in
  match Client.submit ?qos cn ~case with
  | Ok v -> (v, Unix.gettimeofday () -. t0)
  | Error e -> failf "submit %s: %a" case Client.pp_submit_error e

(* The first submission at each tier is a cold job (three distinct
   digests), and a near-free row's cold verdict must not wait out a
   progress period: the median stays well under the 0.25 s period. *)
let test_serve_cold_then_memo () =
  with_server ~tag:"memo" (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      let v, gold_s = timed_submit cn ~case:"CAS-lock" in
      check "cold verdict is not a memo" false v.Client.v_memo;
      check "cold run adds durable units" true (v.Client.v_fresh_units > 0);
      check "verdict ok" true (v.Client.v_status = 0);
      let cold_s =
        gold_s
        :: List.map
             (fun qos ->
               let v, s = timed_submit ~qos cn ~case:"CAS-lock" in
               check "lower-tier cold verdict ok" true (v.Client.v_status = 0);
               s)
             [ Protocol.Silver; Protocol.Bronze ]
      in
      let median = List.nth (List.sort compare cold_s) 1 in
      if median >= 0.2 then
        failf "cold median %.3f s (gold/silver/bronze: %s): held for a tick"
          median
          (String.concat "/" (List.map (Printf.sprintf "%.3f") cold_s));
      (match Client.submit cn ~case:"CAS-lock" with
      | Ok v ->
        check "second submission is memoized" true v.Client.v_memo;
        check "memoized verdict adds no units" true
          (v.Client.v_fresh_units = 0)
      | Error e -> failf "memo submit: %a" Client.pp_submit_error e);
      (match Client.status cn with
      | Ok v ->
        check "status carries the schema version" true
          (Option.bind (Json.member "schema_version" v) Json.to_int
          = Some Protocol.schema_version);
        check "status carries the drain flag" true
          (Option.bind (Json.member "draining" v) Json.to_bool = Some false)
      | Error e -> failf "status: %a" Client.pp_submit_error e);
      Client.close cn)

(* The progress contract (docs/SERVICE.md §2): a job exploring for
   several periods streams progress frames with growing states counts,
   and none follows its verdict.  Bronze bounds Ticketed lock at 5 s.
   A late progress frame would be read as the answer to the ping. *)
let test_progress_contract () =
  with_server ~tag:"progress" (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      let seen = ref [] in
      (match
         Client.submit ~qos:Protocol.Bronze ~timeout_s:120.
           ~on_progress:(fun n -> seen := n :: !seen)
           cn ~case:"Ticketed lock"
       with
      | Ok v ->
        check "bronze verdict is verified or degraded" true
          (v.Client.v_status = 0 || v.Client.v_status = 2)
      | Error e -> failf "bronze Ticketed lock: %a" Client.pp_submit_error e);
      let counts = List.rev !seen in
      check "at least one progress frame" true (counts <> []);
      check "states counts are positive" true (List.for_all (( < ) 0) counts);
      check "states counts never decrease" true
        (List.sort compare counts = counts);
      check "no progress frame after the verdict" true (Client.ping cn);
      Client.close cn)

(* M clients race the same digest: exactly one exploration runs and all
   M get the identical verdict. *)
let test_concurrent_same_digest () =
  with_server ~tag:"dedup" ~job_delay_s:0.3 (fun ~socket ~dir ->
      let m = 4 in
      let results = Array.make m (Error (Client.Transport "unset")) in
      let threads =
        List.init m (fun i ->
            Thread.create
              (fun () ->
                let cn = Client.connect ~socket in
                results.(i) <- Client.submit cn ~case:"CAS-lock";
                Client.close cn)
              ())
      in
      List.iter Thread.join threads;
      let canons =
        Array.to_list results
        |> List.map (function
             | Ok v ->
               Json.to_string (Protocol.canonical_verdict v.Client.v_frame)
             | Error e -> failf "concurrent submit: %a" Client.pp_submit_error e)
      in
      (match canons with
      | c0 :: rest ->
        check "all clients got the identical verdict" true
          (List.for_all (String.equal c0) rest)
      | [] -> ());
      (* exactly one exploration: one service ledger verdict, and no
         underlying spec verified twice *)
      let records, _ = Journal.read dir in
      let spec_dones =
        List.filter_map
          (function Journal.Spec_done ri -> Some ri.Journal.ri_spec | _ -> None)
          records
      in
      check "one job ledger verdict" true
        (List.length (List.filter (String.equal (ledger "CAS-lock")) spec_dones)
        = 1);
      let explored =
        List.filter (fun s -> s <> ledger "CAS-lock") spec_dones
      in
      check "exactly one exploration ran" true
        (explored <> []
        && List.length explored
           = List.length (List.sort_uniq compare explored)))

let test_shed_past_queue_bound () =
  with_server ~tag:"shed" ~queue_bound:1 ~job_delay_s:0.8
    (fun ~socket ~dir:_ ->
      let submit_bg case res =
        Thread.create
          (fun () ->
            let cn = Client.connect ~socket in
            res := Some (Client.submit cn ~case);
            Client.close cn)
          ()
      in
      let r1 = ref None and r2 = ref None in
      let t1 = submit_bg "CAS-lock" r1 in
      Thread.delay 0.2;
      (* the first job is running its pre-exploration delay *)
      let t2 = submit_bg "Treiber stack" r2 in
      Thread.delay 0.2;
      (* the cold queue now holds one job: the bound *)
      let cn = Client.connect ~socket in
      (match Client.submit cn ~case:"Ticketed lock" with
      | Error (Client.Shed reason) ->
        check "shed reason" true (reason = "queue-full")
      | Ok _ -> failf "submission past the bound was not shed"
      | Error e -> failf "wanted a shed, got %a" Client.pp_submit_error e);
      Client.close cn;
      Thread.join t1;
      Thread.join t2;
      match (!r1, !r2) with
      | Some (Ok _), Some (Ok _) -> ()
      | _ -> failf "accepted submissions did not complete")

let test_drain_finishes_then_sheds () =
  with_server ~tag:"drain" ~job_delay_s:0.5 (fun ~socket ~dir:_ ->
      let r1 = ref None in
      let t1 =
        Thread.create
          (fun () ->
            let cn = Client.connect ~socket in
            r1 := Some (Client.submit cn ~case:"CAS-lock");
            Client.close cn)
          ()
      in
      Thread.delay 0.15;
      let cn = Client.connect ~socket in
      (match Client.drain cn with
      | Ok () -> ()
      | Error e -> failf "drain: %a" Client.pp_submit_error e);
      (match Client.submit cn ~case:"Treiber stack" with
      | Error (Client.Shed reason) ->
        check "post-drain submissions shed" true (reason = "draining")
      | Ok _ -> failf "post-drain submission was accepted"
      | Error e -> failf "wanted a draining shed, got %a" Client.pp_submit_error e);
      Client.close cn;
      Thread.join t1;
      match !r1 with
      | Some (Ok v) ->
        check "in-flight work still completed" true (v.Client.v_status = 0)
      | _ -> failf "the draining daemon dropped in-flight work")

let test_disconnect_cancels () =
  with_server ~tag:"cancel" ~job_delay_s:0.5 (fun ~socket ~dir ->
      let c1 = Client.connect ~socket in
      Client.send c1 (Protocol.Submit { case = "CAS-lock"; qos = Protocol.Gold });
      (match Client.read_frame ~timeout_s:10. c1 with
      | Ok _ack -> ()
      | Error e -> failf "no ack: %s" e);
      Client.abandon c1;
      (* the orphan settles as cancelled in the ledger *)
      let deadline = Unix.gettimeofday () +. 15. in
      let rec tier () =
        let records, _ = Journal.read dir in
        match
          List.filter_map
            (function
              | Journal.Spec_done ri when ri.Journal.ri_spec = ledger "CAS-lock"
                ->
                Some ri.Journal.ri_tier
              | _ -> None)
            records
        with
        | t :: _ -> Some t
        | [] ->
          if Unix.gettimeofday () > deadline then None
          else begin
            Thread.delay 0.05;
            tier ()
          end
      in
      (match tier () with
      | Some t -> check "settled as cancelled, not memoizable" true
          (t = "service-cancelled")
      | None -> failf "orphaned job never settled");
      (* a fresh client re-explores to a real verdict *)
      let c2 = Client.connect ~socket in
      (match Client.submit c2 ~case:"CAS-lock" with
      | Ok v ->
        check "resubmission re-explores" false v.Client.v_memo;
        check "resubmission verdict ok" true (v.Client.v_status = 0)
      | Error e -> failf "resubmit: %a" Client.pp_submit_error e);
      Client.close c2)

(* A daemon restarted with [--resume] re-runs the ledger's in-flight
   jobs without any client asking.  The hand-written begin uses the
   per-case ledger spec of older journals, so this also resumes a
   journal written before ledger specs were per digest. *)
let test_resume_requeues_in_flight () =
  let dir = fresh_dir "resume" in
  let j = Journal.openj ~resume:true dir in
  Journal.append j
    (Journal.Spec_begin
       { spec = "job/CAS-lock"; params = "case=CAS-lock;qos=gold" });
  Journal.flush j;
  Journal.close j;
  with_server ~resume:true ~dir ~tag:"resume" (fun ~socket ~dir ->
      check "the in-flight ledger job re-ran to a verdict" true
        (await_record dir (function
          | Journal.Spec_done ri ->
            ri.Journal.ri_spec = ledger "CAS-lock"
            && ri.Journal.ri_tier = "service"
          | _ -> false));
      (* and a client is now served from the memo *)
      let cn = Client.connect ~socket in
      (match Client.submit cn ~case:"CAS-lock" with
      | Ok v ->
        check "served from the memo" true
          (v.Client.v_memo && v.Client.v_fresh_units = 0)
      | Error e -> failf "post-resume submit: %a" Client.pp_submit_error e);
      Client.close cn)

(* --- health, readiness, overload, rate limits, retries --------------- *)

let test_health_and_ready () =
  with_server ~tag:"health" (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      (match Client.health cn with
      | Error e -> failf "health: %a" Client.pp_submit_error e
      | Ok frame ->
        let int_field k = Option.bind (Json.member k frame) Json.to_int in
        check "uptime present and sane" true
          (match Option.bind (Json.member "uptime_s" frame) Json.to_float with
          | Some u -> u >= 0.
          | None -> false);
        check "queue empty" true (int_field "queue_depth" = Some 0);
        check "nothing in flight" true (int_field "inflight" = Some 0);
        check "nothing shed" true (int_field "shed_total" = Some 0);
        check "overload state is normal" true
          (Option.bind (Json.member "overload_state" frame) Json.to_str
          = Some "normal");
        check "journal lag present" true
          (match int_field "journal_lag_bytes" with
          | Some n -> n >= 0
          | None -> false);
        check "healthy journal: null fault" true
          (Json.member "journal_fault" frame = Some Json.Null));
      (match Client.ready cn with
      | Ok r -> check "fresh daemon is ready" true r
      | Error e -> failf "ready: %a" Client.pp_submit_error e);
      (match Client.drain cn with
      | Ok () -> ()
      | Error e -> failf "drain: %a" Client.pp_submit_error e);
      (match Client.ready cn with
      | Ok r -> check "a draining daemon is alive but not ready" false r
      | Error e -> failf "ready while draining: %a" Client.pp_submit_error e);
      Client.close cn)

(* Overload: past the high watermark bronze sheds, gold is admitted but
   demoted one rung with the verdict marked degraded — and the demoted
   verdict is never served from the memo (no phantom full-QoS verdict). *)
let test_overload_demotes_and_sheds () =
  with_server ~tag:"overload" ~job_delay_s:0.4 ~queue_bound:8
    ~overload_high:1 ~overload_low:0 (fun ~socket ~dir ->
      (* two bronze fillers: one runs, one queues past the watermark *)
      let fillers =
        List.map
          (fun case ->
            let cn = Client.connect ~socket in
            Client.send cn
              (Protocol.Submit { case; qos = Protocol.Bronze });
            (match Client.read_frame ~timeout_s:10. cn with
            | Ok _ack -> ()
            | Error e -> failf "filler ack: %s" e);
            cn)
          [ "Ticketed lock"; "Pair snapshot" ]
      in
      (* bronze under pressure has no lower rung: structured shed *)
      let shed_cn = Client.connect ~socket in
      (match Client.submit ~qos:Protocol.Bronze shed_cn ~case:"CAS-lock" with
      | Error (Client.Shed reason) ->
        check "bronze shed with the overload reason" true (reason = "overload")
      | Ok _ -> failf "bronze was admitted past the watermark"
      | Error e -> failf "wanted an overload shed, got %a" Client.pp_submit_error e);
      Client.close shed_cn;
      (* gold under pressure: admitted, demoted, marked degraded *)
      let gold_cn = Client.connect ~socket in
      (match Client.submit ~timeout_s:60. gold_cn ~case:"CAS-lock" with
      | Error e -> failf "gold under overload: %a" Client.pp_submit_error e
      | Ok v ->
        check "demoted verdict still ok" true (v.Client.v_status = 0);
        check "verdict carries degraded=true" true
          (Option.bind (Json.member "degraded" v.Client.v_frame) Json.to_bool
          = Some true));
      Client.close gold_cn;
      List.iter Client.close fillers;
      (* the phantom-verdict guard: a fresh gold submission re-explores
         at full QoS instead of reusing the demoted verdict *)
      let fresh_cn = Client.connect ~socket in
      (match Client.submit ~timeout_s:60. fresh_cn ~case:"CAS-lock" with
      | Error e -> failf "post-overload gold: %a" Client.pp_submit_error e
      | Ok v ->
        check "demoted verdict is not a memo hit" false v.Client.v_memo;
        check "full-QoS verdict not marked degraded" true
          (Option.bind (Json.member "degraded" v.Client.v_frame) Json.to_bool
          = Some false));
      (* shed decisions are journaled (and survive as ledger records) *)
      let records, _ = Journal.read dir in
      check "the shed was journaled" true
        (List.exists
           (function
             | Journal.Spec_done ri -> ri.Journal.ri_tier = "service-shed"
             | _ -> false)
           records);
      (* and surfaced in health *)
      (match Client.health fresh_cn with
      | Ok frame ->
        check "health counts the shed" true
          (match Option.bind (Json.member "shed_total" frame) Json.to_int with
          | Some n -> n >= 1
          | None -> false)
      | Error e -> failf "health after overload: %a" Client.pp_submit_error e);
      Client.close fresh_cn)

(* The per-client token bucket: a client past its burst is answered
   with structured rate-limited sheds, not queue pressure. *)
let test_rate_limit_sheds () =
  with_server ~tag:"rate" ~job_delay_s:0.3 ~rate:(0.1, 2)
    (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      List.iter
        (fun case -> Client.send cn (Protocol.Submit { case; qos = Protocol.Gold }))
        [ "CAS-lock"; "Ticketed lock"; "Pair snapshot"; "CG increment" ];
      let frame_type f =
        match Option.bind (Json.member "type" f) Json.to_str with
        | Some t -> t
        | None -> "?"
      in
      let frames =
        List.init 4 (fun i ->
            match Client.read_frame ~timeout_s:10. cn with
            | Ok f -> f
            | Error e -> failf "reply %d: %s" i e)
      in
      (match List.map frame_type frames with
      | [ "ack"; "ack"; "shed"; "shed" ] -> ()
      | ts -> failf "wanted ack,ack,shed,shed; got %s" (String.concat "," ts));
      List.iter
        (fun f ->
          if frame_type f = "shed" then
            check "shed reason is rate-limited" true
              (Option.bind (Json.member "reason" f) Json.to_str
              = Some "rate-limited"))
        frames;
      Client.abandon cn)

let test_submit_retry_first_attempt () =
  with_server ~tag:"retry" (fun ~socket ~dir:_ ->
      (match
         Client.submit_retry ~retries:2 ~backoff_base_s:0.05 ~socket
           ~case:"CAS-lock" ()
       with
      | Ok rv ->
        check "one attempt sufficed" true (rv.Client.rv_attempts = 1);
        check "no backoff slept" true (rv.Client.rv_backoff_s = 0.);
        check "verdict ok" true (rv.Client.rv_verdict.Client.v_status = 0)
      | Error e -> failf "submit_retry: %a" Client.pp_submit_error e);
      (* deterministic server errors fail fast, no retries burned *)
      let t0 = Unix.gettimeofday () in
      match
        Client.submit_retry ~retries:3 ~backoff_base_s:0.5 ~socket
          ~case:"No Such Case" ()
      with
      | Error (Client.Server_error c) ->
        check "structured protocol error" true
          (Crash.kind c = Crash.Protocol_error);
        check "failed fast, without backoff" true
          (Unix.gettimeofday () -. t0 < 0.5)
      | Error e -> failf "wanted a server error, got %a" Client.pp_submit_error e
      | Ok _ -> failf "an unknown case produced a verdict")

(* --- journal syscall faults ------------------------------------------ *)

(* The wounded-journal contract at unit scale: the first injected write
   fault flips [io_failure] to a structured [Io_fault], later appends
   are disk no-ops that never raise, and in-memory lookups keep
   answering for this process. *)
let test_journal_wounded_by_enospc () =
  let dir = fresh_dir "wound" in
  let budget = ref 512 in
  let io =
    {
      Journal.io_write =
        (fun fd s pos len ->
          if !budget - len < 0 then
            raise (Unix.Unix_error (Unix.ENOSPC, "write", "test"))
          else begin
            let k = Journal.real_io.Journal.io_write fd s pos len in
            budget := !budget - k;
            k
          end);
      io_fsync = Journal.real_io.Journal.io_fsync;
      io_rename = Journal.real_io.Journal.io_rename;
    }
  in
  let j = Journal.openj ~io ~fsync:Journal.Always ~resume:false dir in
  let n = ref 0 in
  while Journal.io_failure j = None && !n < 100 do
    Journal.append j
      (Journal.Spec_done
         (ledger_image
            ~spec:(Printf.sprintf "job/w%d" !n)
            ~params:(Printf.sprintf "digest-w%d" !n)
            ()));
    incr n
  done;
  (match Journal.io_failure j with
  | Some c ->
    check "wounded with a structured io-fault" true
      (Crash.kind c = Crash.Io_fault)
  | None -> failf "the write fault never wounded the journal");
  (* appends after the wound: no exception, index still answers *)
  Journal.append j
    (Journal.Spec_done (ledger_image ~spec:"job/after" ~params:"digest-after" ()));
  check "post-wound append is visible in memory" true
    (Option.is_some
       (Journal.find_spec_done j ~spec:"job/after" ~params:"digest-after"));
  Journal.flush j;
  Journal.close j;
  (* a real-io reopen recovers a clean prefix and forgets the rest *)
  let j2 = Journal.openj ~resume:true dir in
  check "the post-wound record was never persisted" true
    (Journal.find_spec_done j2 ~spec:"job/after" ~params:"digest-after" = None);
  check "a persisted prefix survived" true
    (Option.is_some
       (Journal.find_spec_done j2 ~spec:"job/w0" ~params:"digest-w0"));
  Journal.close j2

(* --- the verdict table --------------------------------------------- *)

(* A memo hit is answered by its reader thread from the verdict table,
   not queued behind the executor: while a bronze filler holds the
   executor in its pre-exploration delay, a repeat gold submission comes
   back memoized and the filler is still the one job in flight. *)
let test_memo_hit_beside_busy_executor () =
  with_server ~tag:"busy" ~job_delay_s:1.0 (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      (match Client.submit cn ~case:"CAS-lock" with
      | Ok v -> check "first answer is cold" false v.Client.v_memo
      | Error e -> failf "cold submit: %a" Client.pp_submit_error e);
      let filler = Client.connect ~socket in
      Client.send filler
        (Protocol.Submit { case = "Seq. stack"; qos = Protocol.Bronze });
      (match Client.read_frame ~timeout_s:10. filler with
      | Ok _ack -> ()
      | Error e -> failf "filler ack: %s" e);
      let inflight () =
        match Client.health cn with
        | Ok frame -> Option.bind (Json.member "inflight" frame) Json.to_int
        | Error e -> failf "health: %a" Client.pp_submit_error e
      in
      (* the executor picks the filler up just after its ack *)
      let deadline = Unix.gettimeofday () +. 0.5 in
      while inflight () <> Some 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.005
      done;
      check "the filler holds the executor" true (inflight () = Some 1);
      (match Client.submit cn ~case:"CAS-lock" with
      | Ok v ->
        check "repeat is a memo hit" true v.Client.v_memo;
        check "memo hit adds no units" true (v.Client.v_fresh_units = 0)
      | Error e -> failf "memo submit: %a" Client.pp_submit_error e);
      check "the filler still holds the executor" true (inflight () = Some 1);
      Client.close filler;
      Client.close cn)

(* A journal whose ledger spec is per case ("job/CAS-lock" for every
   tier) holding a finished gold job and a begun bronze one: the resumed
   daemon must re-run the bronze job, although a later record of the
   same spec is a finished verdict. *)
let test_resume_keys_ledger_by_digest () =
  let dir = fresh_dir "resume-digest" in
  let gold = Protocol.digest ~case:"CAS-lock" ~qos:Protocol.Gold in
  let bronze = Protocol.digest ~case:"CAS-lock" ~qos:Protocol.Bronze in
  let j = Journal.openj ~resume:true dir in
  List.iter (Journal.append j)
    [
      Journal.Spec_begin { spec = "job/CAS-lock"; params = gold };
      Journal.Spec_done (ledger_image ~spec:"job/CAS-lock" ~params:gold ());
      Journal.Spec_begin { spec = "job/CAS-lock"; params = bronze };
    ];
  Journal.close j;
  with_server ~resume:true ~dir ~tag:"resume-digest" (fun ~socket:_ ~dir ->
      check "the begun bronze job re-ran to a service verdict" true
        (await_record dir (function
          | Journal.Spec_done ri ->
            ri.Journal.ri_params = bronze && ri.Journal.ri_tier = "service"
          | _ -> false)))

(* A daemon resumed on a journal that holds a finished digest answers
   it from the verdict table: acked as cached, a memo verdict with no
   fresh units, and not one record appended to the journal. *)
let test_resume_serves_table () =
  let dir = fresh_dir "resume-table" in
  with_server ~dir ~tag:"resume-table-a" (fun ~socket ~dir:_ ->
      let cn = Client.connect ~socket in
      (match Client.submit cn ~case:"CAS-lock" with
      | Ok v -> check "daemon A answers cold" false v.Client.v_memo
      | Error e -> failf "daemon A submit: %a" Client.pp_submit_error e);
      Client.close cn);
  with_server ~resume:true ~dir ~tag:"resume-table-b" (fun ~socket ~dir ->
      let on_disk () =
        let records, _ = Journal.read dir in
        ( List.length
            (List.filter
               (function
                 | Journal.Spec_done ri ->
                   String.starts_with ~prefix:"job/" ri.Journal.ri_spec
                 | _ -> false)
               records),
          List.fold_left
            (fun n jb -> n + jb.Journal.j_units)
            0
            (Journal.jobs_of_records records) )
      in
      let before = on_disk () in
      let cn = Client.connect ~socket in
      Client.send cn (Protocol.Submit { case = "CAS-lock"; qos = Protocol.Gold });
      let frame () =
        match Client.read_frame ~timeout_s:10. cn with
        | Ok f -> f
        | Error e -> failf "frame: %s" e
      in
      let ack = frame () in
      check "acked as cached" true
        (Option.bind (Json.member "cached" ack) Json.to_bool = Some true);
      let verdict = frame () in
      check "verdict is a memo" true
        (Option.bind (Json.member "memo" verdict) Json.to_bool = Some true);
      check "verdict adds no units" true
        (Option.bind (Json.member "fresh_units" verdict) Json.to_int = Some 0);
      Client.close cn;
      check "the journal gained no ledger verdict and no unit" true
        (on_disk () = before))

(* The shed ledger has one reader: what [Server.shed_total_of_records]
   recovers from a daemon's journal is the count its health frame
   reported.  Two of four submissions past a burst-2 token bucket shed;
   the journal is read once the daemon has stopped and closed it. *)
let test_shed_ledger_total () =
  let dir = fresh_dir "shed-ledger" in
  let reported =
    with_server ~tag:"shed-ledger" ~dir ~job_delay_s:0.3 ~rate:(0.1, 2)
      (fun ~socket ~dir:_ ->
        let cn = Client.connect ~socket in
        List.iter
          (fun case ->
            Client.send cn (Protocol.Submit { case; qos = Protocol.Gold }))
          [ "CAS-lock"; "Seq. stack"; "FC-stack"; "Prod/Cons" ];
        let frames =
          List.init 4 (fun i ->
              match Client.read_frame ~timeout_s:10. cn with
              | Ok f -> f
              | Error e -> failf "reply %d: %s" i e)
        in
        Alcotest.(check int) "two submissions shed" 2
          (List.length
             (List.filter
                (fun f ->
                  Option.bind (Json.member "type" f) Json.to_str = Some "shed")
                frames));
        Client.abandon cn;
        let hc = Client.connect ~socket in
        let total =
          match Client.health hc with
          | Ok frame -> Option.bind (Json.member "shed_total" frame) Json.to_int
          | Error e -> failf "health: %a" Client.pp_submit_error e
        in
        Client.close hc;
        total)
  in
  Alcotest.(check (option int)) "health counts both sheds" (Some 2) reported;
  let records, _ = Journal.read dir in
  Alcotest.(check (option int))
    "the journal's shed ledger totals the health frame's count" reported
    (Some (Server.shed_total_of_records records))

let suite =
  [
    Alcotest.test_case "json: parse inverts to_string" `Quick
      test_json_round_trip;
    Alcotest.test_case "json: garbage rejected" `Quick test_json_rejects_garbage;
    Alcotest.test_case "protocol: requests round-trip" `Quick
      test_request_round_trip;
    Alcotest.test_case "protocol: malformed frames are protocol-errors" `Quick
      test_request_malformed;
    Alcotest.test_case "protocol: digest and QoS ladder" `Quick test_digest;
    Alcotest.test_case "budget: cancel probe trips sticky" `Quick
      test_budget_cancel_probe;
    Alcotest.test_case "journal: ledger verdict lookup" `Quick
      test_ledger_lookup;
    Alcotest.test_case "journal: torn tail forgets the verdict" `Quick
      test_ledger_torn_tail;
    Alcotest.test_case "jobs: one JSON renderer, versioned schema" `Quick
      test_jobs_json_schema;
    Alcotest.test_case "serve: cold then memoized verdict" `Quick
      test_serve_cold_then_memo;
    Alcotest.test_case "serve: progress frames, none after the verdict" `Quick
      test_progress_contract;
    Alcotest.test_case "serve: M clients, one exploration" `Quick
      test_concurrent_same_digest;
    Alcotest.test_case "serve: shed past the queue bound" `Quick
      test_shed_past_queue_bound;
    Alcotest.test_case "serve: drain finishes work, sheds intake" `Quick
      test_drain_finishes_then_sheds;
    Alcotest.test_case "serve: disconnect cancels, never memoizes" `Quick
      test_disconnect_cancels;
    Alcotest.test_case "serve: resume requeues in-flight ledger jobs" `Quick
      test_resume_requeues_in_flight;
    Alcotest.test_case "serve: health fields and readiness flip" `Quick
      test_health_and_ready;
    Alcotest.test_case "serve: overload demotes gold, sheds bronze" `Quick
      test_overload_demotes_and_sheds;
    Alcotest.test_case "serve: per-client token bucket sheds" `Quick
      test_rate_limit_sheds;
    Alcotest.test_case "client: submit_retry first attempt and fail-fast"
      `Quick test_submit_retry_first_attempt;
    Alcotest.test_case "journal: wounded by ENOSPC, degrades honestly" `Quick
      test_journal_wounded_by_enospc;
    Alcotest.test_case "serve: memo hit beside a busy executor" `Quick
      test_memo_hit_beside_busy_executor;
    Alcotest.test_case "serve: resume keys the ledger by digest" `Quick
      test_resume_keys_ledger_by_digest;
    Alcotest.test_case "serve: resumed daemon serves the table" `Quick
      test_resume_serves_table;
    Alcotest.test_case "serve: shed ledger total matches health" `Quick
      test_shed_ledger_total;
  ]
