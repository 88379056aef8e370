(* perfbench: the repository benchmark.

   It drives the system from outside, through its public entry points:
   [Registry.case.c_verify] in-process for the engine, and a real
   [fcsl serve] child process through [Fcsl_service.Client] for the
   service.  It overrides no engine default, so a later change to a
   default shows up here.  Workloads (rows, QoS mix, loop type and why
   each was chosen: perfbench/README.md):

     verify-lockfree  the seven non-blocking rows, in-process
     serve-mixed      per round a fresh daemon: client A's 15 cold digests,
                      client B's memo probes of digests already answered

   Usage:
     bench.exe --workload W --seed N --seconds S --trace 0|1
               --fcsl PATH/fcsl_cli.exe --run-dir DIR
     bench.exe --probe          (set-up probe: prints "ready" and exits)

   Every verdict is checked against the hand-written table in
   [Expected].  Detail goes to stderr; the last stdout line is the
   result object {correct, attempted, failed, metrics}.  With --trace 1
   the metrics are the per-layer ones, the measured phase runs twice
   (spans off, then on) to price the tracing, and the spans are written
   to DIR/trace-W.json. *)

open Fcsl_core
open Perfbench
module Registry = Fcsl_report.Registry
module Client = Fcsl_service.Client
module Protocol = Fcsl_service.Protocol
module Json = Fcsl_service.Json

let now = Unix.gettimeofday
let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

exception Harness of string

let fail fmt = Printf.ksprintf (fun s -> raise (Harness s)) fmt

(* --- Workload definitions ---------------------------------------------- *)

(* The lock rows are verified once per traced verify run, not timed: a
   pass over them takes 15-25 s, so a timed run would hold two or three
   passes, and their p90 moved with the host's speed far beyond any
   bound (README.md).  CG increment re-verifies exactly the CAS-lock
   and Ticketed lock triples, so it would time the same exploration
   twice. *)
let lock_rows = [ "CAS-lock"; "Ticketed lock"; "CG allocator" ]

let lockfree_rows =
  [
    "Pair snapshot";
    "Treiber stack";
    "Spanning tree";
    "Flat combiner";
    "Seq. stack";
    "FC-stack";
    "Prod/Cons";
  ]

(* FC-stack and Prod/Cons are left out: Flat combiner and Seq. stack
   already verify their triples, so their first submission would be a
   journal replay, not a cold job.  The lock rows cost ~25 s per cold
   round in the service; the verify workload's traced run measures them
   in-process. *)
let mixed_rows =
  [ "Pair snapshot"; "Treiber stack"; "Spanning tree"; "Flat combiner"; "Seq. stack" ]

let mixed_digests =
  List.concat_map
    (fun q -> List.map (fun c -> (c, q)) mixed_rows)
    [ Protocol.Gold; Protocol.Silver; Protocol.Bronze ]

let workloads = [ "verify-lockfree"; "serve-mixed" ]

let slug name =
  let b = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
        let n = Buffer.length b in
        if n > 0 && Buffer.nth b (n - 1) <> '-' then Buffer.add_char b '-')
    name;
  let s = Buffer.contents b in
  if s <> "" && s.[String.length s - 1] = '-' then
    String.sub s 0 (String.length s - 1)
  else s

let all_rows = lock_rows @ lockfree_rows

(* --- Metric catalogue (the names BENCHMARK.json declares) -------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_latency_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* The percentile [op_latency_ms] reports: the one that sits inside a
   single mode of the workload's latency distribution (README.md).
   Verify passes run at two host speeds about 1.5x apart, so their
   median moves with the share of time at each while the p90 holds.
   Cold submissions are quantised by the progress thread's 250 ms
   tick, and the p90 falls on Treiber stack, whose exploration
   straddles the first tick, while the median holds on the one-tick
   rows. *)
let gated_percentile = function "verify-lockfree" -> 90. | _ -> 50.

(* Operation latency statistics, in ms. *)
let op_stats workload =
  [
    ("op_latency_ms", Stats.percentile (gated_percentile workload));
    ("op.p50_ms", Stats.median);
    ("op.p90_ms", Stats.percentile 90.);
  ]

let per_layer =
  List.map (fun r -> ("verify.row_s." ^ slug r, "s")) all_rows
  @ [
      ("sched.states", "count");
      ("sched.states_per_s", "1/s");
      ("sched.memo_hit_ratio", "ratio");
      ("sched.sleep_skips", "count");
      ("sched.max_bucket", "count");
      ("sched.diverged", "count");
      ("sched.minor_words_per_state", "words");
      ("sched.locks.minor_words_per_state", "words");
      ("sched.locks.diverged", "count");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.major_words", "words");
      ("verify.cpu_share", "ratio");
      ("verify.tier_exhaustive", "count");
      ("verify.tier_pruned", "count");
      ("verify.tier_sampled", "count");
      ("server.ready_s", "s");
      ("server.admit_ms.p50", "ms");
      ("server.admit_ms.p90", "ms");
      ("server.run_ms.p50", "ms");
      ("server.run_ms.p90", "ms");
      ("server.probe_ms.p50", "ms");
      ("server.probe_ms.p90", "ms");
      ("server.memo_ms.p50", "ms");
      ("server.memo_ms.p90", "ms");
      ("server.cold_overhead_ms", "ms");
      ("server.queue_position.mean", "count");
      ("server.queue_position.max", "count");
      ("server.stalls_per_s", "1/s");
      ("server.cpu_share", "ratio");
      ("server.memo_hit_rate", "ratio");
      ("server.queue_depth_max", "count");
      ("server.shed_total", "count");
      ("journal.fresh_units", "count");
      ("journal.bytes", "B");
      ("journal.replay_ms", "ms");
      ("op.samples", "count");
      ("trace.reconcile_gap", "ratio");
    ]
  @ [ ("op.p50_ms", "ms"); ("op.p90_ms", "ms") ]
  @ List.map
      (fun (m, _) -> ("trace.overhead_share." ^ m, "ratio"))
      (op_stats "")

(* --- Run-wide bookkeeping ---------------------------------------------- *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  fcsl : string;
  run_dir : string;
}

(* Operations attempted and failed, shared by the client threads. *)
let ops_mu = Mutex.create ()
let attempted = ref 0
let failures : Outcome.failure list ref = ref []

let count_op (r : (unit, Outcome.failure) result) =
  Mutex.lock ops_mu;
  incr attempted;
  (match r with
  | Ok () -> ()
  | Error f ->
    failures := f :: !failures;
    log "operation failed: %s" (Outcome.describe f));
  Mutex.unlock ops_mu

let rng cfg salt = Random.State.make [| cfg.seed; Hashtbl.hash salt |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run [step] (which returns its own duration) until the next step
   would probably overrun [seconds]: at least once, and never starting
   a step the median step so far says cannot finish in time. *)
let timed_loop ~seconds step =
  let start = now () in
  let rec go durations =
    let elapsed = now () -. start in
    if durations <> [] && elapsed +. Stats.median durations > seconds then
      List.rev durations
    else go (step () :: durations)
  in
  go []

let ms x = x *. 1000.
let p50 xs = Stats.median xs
let p90 xs = Stats.percentile 90. xs
let sum = List.fold_left ( +. ) 0.
let sumi = List.fold_left ( + ) 0

(* --- Processes and /proc ----------------------------------------------- *)

let children : int list ref = ref []

let reap ?(grace_s = 10.) pid =
  let deadline = now () +. grace_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Thread.delay 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let read_proc path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM, the resident-set high-water mark, in MB. *)
let vm_hwm_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
    (fun kb -> float_of_int kb /. 1024.)

(* utime + stime of a process, in seconds (USER_HZ is 100 on Linux). *)
let proc_cpu_s pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  float_of_int (int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12))
  /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* --- Set-up probe (verify-lockfree) -------------------------------------- *)

(* The verify workload's set-up: a fresh process of this binary runs
   every module initialiser and resolves the workload's rows, then says
   "ready".  Work a later change moves into start-up lands here. *)
let probe_main () =
  List.iter (fun r -> ignore (Option.get (Registry.find r))) lockfree_rows;
  print_endline "ready";
  exit 0

(* A probe costs milliseconds, so the median can afford many. *)
let probe_repeats = 21

let probe_setup () =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe" |]
      Unix.stdin w Unix.stderr
  in
  children := pid :: !children;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = now () in
  close_in ic;
  reap pid;
  if line <> "ready" then fail "set-up probe did not report ready";
  t1 -. t0

(* --- verify-lockfree ---------------------------------------------------- *)

type row_run = {
  rr_case : string;
  rr_s : float;
  rr_cpu_s : float;
  rr_reports : Verify.report list;
  rr_minor_collections : int;
  rr_major_collections : int;
  rr_major_words : float;
}

(* Counter totals over reports.  The explorer counters are absent on
   sampled and journal-replayed reports. *)
let states reports = sumi (List.map (fun r -> r.Verify.states) reports)
let diverged reports = sumi (List.map (fun r -> r.Verify.diverged) reports)

let expl_sum f reports =
  sumi (List.map (fun r -> Option.fold ~none:0 ~some:f r.Verify.expl) reports)

let minor_words reports =
  sum (List.map (fun r -> Option.fold ~none:0. ~some:(fun x -> x.Verify.x_minor_words) r.Verify.expl) reports)

let verify_row tr ~parent case =
  let c = Option.get (Registry.find case) in
  let g0 = Gc.quick_stat () in
  let c0 = self_cpu_s () in
  let t0 = now () in
  let reports = c.Registry.c_verify () in
  let t1 = now () in
  let c1 = self_cpu_s () in
  let g1 = Gc.quick_stat () in
  let exit_code = Verify.exit_code reports in
  count_op (Outcome.of_row ~case ~exit_code);
  let rr =
    {
      rr_case = case;
      rr_s = t1 -. t0;
      rr_cpu_s = c1 -. c0;
      rr_reports = reports;
      rr_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      rr_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      rr_major_words = g1.Gc.major_words -. g0.Gc.major_words;
    }
  in
  if Spans.enabled tr then
    Spans.record tr ~parent "verify.row" ~start:t0 ~stop:t1
      ~args:
        [
          ("case", Spans.S case);
          ("exit_code", Spans.I exit_code);
          ("states", Spans.I (states reports));
          ("diverged", Spans.I (diverged reports));
          ("memo_hits", Spans.I (expl_sum (fun x -> x.Verify.x_memo_hits) reports));
          ("memo_misses", Spans.I (expl_sum (fun x -> x.Verify.x_memo_misses) reports));
          ("sleep_skips", Spans.I (expl_sum (fun x -> x.Verify.x_sleep_skips) reports));
          ("minor_words", Spans.F (minor_words reports));
          ("gc_minor_collections", Spans.I rr.rr_minor_collections);
          ("gc_major_collections", Spans.I rr.rr_major_collections);
          ("gc_major_words", Spans.F rr.rr_major_words);
        ];
  rr

type phase = {
  ops_ms : float list;  (* latency of each timed operation *)
  layers : (string * float) list;
}

let verify_phase cfg rows tr ~seconds =
  let st = rng cfg "verify-order" in
  let passes = ref [] in
  let pass_s =
    timed_loop ~seconds (fun () ->
        let id = Spans.fresh_id tr in
        let t0 = now () in
        let runs = List.map (verify_row tr ~parent:id) (shuffle st rows) in
        let t1 = now () in
        Spans.record tr ~id "pass" ~start:t0 ~stop:t1;
        passes := runs :: !passes;
        t1 -. t0)
  in
  let passes = List.rev !passes in
  log "pass times (s): %s" (String.concat " " (List.map (Printf.sprintf "%.3f") pass_s));
  let runs = List.concat passes in
  let reports = List.concat_map (fun r -> r.rr_reports) runs in
  let n_passes = float_of_int (List.length passes) in
  let per_pass f = float_of_int (sumi (List.map f runs)) /. n_passes in
  let states = states reports in
  let hits = expl_sum (fun x -> x.Verify.x_memo_hits) reports
  and misses = expl_sum (fun x -> x.Verify.x_memo_misses) reports in
  let row_time = sum (List.map (fun r -> r.rr_s) runs) in
  let tier t =
    float_of_int (List.length (List.filter (fun r -> r.Verify.tier = t) reports))
    /. n_passes
  in
  let layers =
    List.map
      (fun case ->
        ( "verify.row_s." ^ slug case,
          p50 (List.filter_map (fun r -> if r.rr_case = case then Some r.rr_s else None) runs) ))
      rows
    @ [
        ("sched.states", float_of_int states /. n_passes);
        ("sched.states_per_s", float_of_int states /. row_time);
        ( "sched.memo_hit_ratio",
          if hits + misses = 0 then 0.
          else float_of_int hits /. float_of_int (hits + misses) );
        ("sched.sleep_skips", float_of_int (expl_sum (fun x -> x.Verify.x_sleep_skips) reports) /. n_passes);
        ( "sched.max_bucket",
          float_of_int
            (List.fold_left
               (fun m (r : Verify.report) ->
                 match r.Verify.expl with Some x -> max m x.Verify.x_max_bucket | None -> m)
               0 reports) );
        ("sched.diverged", float_of_int (diverged reports) /. n_passes);
        ( "sched.minor_words_per_state",
          if states = 0 then 0. else minor_words reports /. float_of_int states );
        ("gc.minor_collections", per_pass (fun r -> r.rr_minor_collections));
        ("gc.major_collections", per_pass (fun r -> r.rr_major_collections));
        ("gc.major_words", sum (List.map (fun r -> r.rr_major_words) runs) /. n_passes);
        ("verify.cpu_share", sum (List.map (fun r -> r.rr_cpu_s) runs) /. row_time);
        ("verify.tier_exhaustive", tier Verify.Exhaustive);
        ("verify.tier_pruned", tier Verify.Pruned);
        ("verify.tier_sampled", tier Verify.Sampled);
      ]
  in
  { ops_ms = List.map ms pass_s; layers }

(* --- The service: daemons and submissions ------------------------------ *)

type daemon = { pid : int; socket : string; journal : string }

let spawn_daemon ?parent cfg tr ~tag =
  let journal = Filename.concat cfg.run_dir (tag ^ ".journal") in
  let socket = Filename.concat cfg.run_dir (tag ^ ".sock") in
  rm_rf journal;
  let logfd =
    Unix.openfile
      (Filename.concat cfg.run_dir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process cfg.fcsl
      [| cfg.fcsl; "serve"; "--socket"; socket; "--journal"; journal |]
      Unix.stdin logfd logfd
  in
  children := pid :: !children;
  Unix.close logfd;
  if not (Client.wait_ready ~timeout_s:30. ~socket ()) then
    fail "fcsl serve (%s) did not become ready" tag;
  let t1 = now () in
  Spans.record tr ?parent "server.spawn" ~start:t0 ~stop:t1 ~args:[ ("tag", Spans.S tag) ];
  ({ pid; socket; journal }, t1 -. t0)

let stop_daemon ?parent tr d =
  let t0 = now () in
  (match Client.connect ~socket:d.socket with
  | c ->
    ignore (Client.drain c);
    Client.close c
  | exception Unix.Unix_error _ -> ());
  reap d.pid;
  Spans.record tr ?parent "server.drain" ~start:t0 ~stop:(now ());
  rm_rf d.journal

type answer = {
  a_case : string;
  a_qos : Protocol.qos;
  a_send : float;
  a_ack : float option;  (* traced submissions only *)
  a_done : float;
  a_position : int option;
  a_status : int;
  a_memo : bool;
  a_fresh_units : int;
  a_tiers : string list;
}

let latency a = a.a_done -. a.a_send
let submit_timeout_s = 60.

let tiers_of_frame v =
  match Option.bind (Json.member "reports" v) Json.to_list with
  | Some rs ->
    List.filter_map (fun r -> Option.bind (Json.member "tier" r) Json.to_str) rs
  | None -> []

(* The untraced path is exactly what [fcsl submit] runs. *)
let submit_plain conn ~case ~qos =
  let t0 = now () in
  match Client.submit ~qos ~timeout_s:submit_timeout_s conn ~case with
  | Error e -> Error (Outcome.of_submit_error e)
  | Ok v ->
    let t1 = now () in
    Result.map
      (fun () ->
        {
          a_case = case;
          a_qos = qos;
          a_send = t0;
          a_ack = None;
          a_done = t1;
          a_position = None;
          a_status = v.Client.v_status;
          a_memo = v.Client.v_memo;
          a_fresh_units = v.Client.v_fresh_units;
          a_tiers = tiers_of_frame v.Client.v_frame;
        })
      (Outcome.of_verdict ~case ~qos:(Protocol.qos_name qos)
         ~got_case:v.Client.v_case ~cancelled:v.Client.v_cancelled
         ~status:v.Client.v_status)

(* The traced path reads the same frames through [Client.send] and
   [Client.read_frame], timestamping the ack (admission), progress
   frames and the verdict.  Spans: client.submit with server.admit and
   server.run children, progress frames as instants — all carrying the
   job id. *)
let submit_traced ?parent tr conn ~case ~qos =
  let id = Spans.fresh_id tr in
  let t_call = now () in
  let field k v = Json.member k v in
  let int k v = Option.bind (field k v) Json.to_int in
  let bool k v = Option.value (Option.bind (field k v) Json.to_bool) ~default:false in
  let progress = ref [] in
  let rec await ~ack ~job ~position =
    match Client.read_frame ~timeout_s:submit_timeout_s conn with
    | Error m when Outcome.is_timeout m -> Error Outcome.Timeout
    | Error m -> Error (Outcome.Transport m)
    | Ok v -> (
      let at = now () in
      match Option.bind (field "type" v) Json.to_str with
      | Some "ack" -> await ~ack:(Some at) ~job:(int "job" v) ~position:(int "position" v)
      | Some "progress" ->
        progress := (at, Option.value (int "states" v) ~default:0) :: !progress;
        await ~ack ~job ~position
      | Some "shed" ->
        Error
          (Outcome.Shed
             (Option.value (Option.bind (field "reason" v) Json.to_str) ~default:"unknown"))
      | Some "error" ->
        Error
          (Outcome.Error_frame
             (Json.to_string (Option.value (field "crash" v) ~default:Json.Null)))
      | Some "verdict" -> Ok (v, at, ack, job, position)
      | _ -> Error (Outcome.Transport "unexpected frame"))
  in
  let t_send = now () in
  let res =
    match Client.send conn (Protocol.Submit { case; qos }) with
    | exception e -> Error (Outcome.Transport (Printexc.to_string e))
    | () -> await ~ack:None ~job:None ~position:None
  in
  match res with
  | Error f -> Error f
  | Ok (v, t_done, t_ack, job, position) ->
    let status = Option.value (int "status" v) ~default:(-1) in
    let got_case = Option.value (Option.bind (field "case" v) Json.to_str) ~default:"" in
    let checked =
      Outcome.of_verdict ~case ~qos:(Protocol.qos_name qos) ~got_case
        ~cancelled:(bool "cancelled" v) ~status
    in
    let a =
      {
        a_case = case;
        a_qos = qos;
        a_send = t_send;
        a_ack = t_ack;
        a_done = t_done;
        a_position = position;
        a_status = status;
        a_memo = bool "memo" v;
        a_fresh_units = Option.value (int "fresh_units" v) ~default:0;
        a_tiers = tiers_of_frame v;
      }
    in
    let t_end = now () in
    let ack = Option.value t_ack ~default:t_send in
    let run_id = Spans.fresh_id tr in
    Spans.record tr ~parent:id ?job "server.admit" ~start:t_send ~stop:ack;
    Spans.record tr ~id:run_id ~parent:id ?job "server.run" ~start:ack ~stop:t_done;
    List.iter
      (fun (at, states) ->
        Spans.instant tr ~parent:run_id ?job "progress" ~at
          ~args:[ ("states", Spans.I states) ])
      !progress;
    Spans.record tr ~id ?parent ?job "client.submit" ~start:t_call ~stop:t_end
      ~args:
        [
          ("case", Spans.S case);
          ("qos", Spans.S (Protocol.qos_name qos));
          ("memo", Spans.I (if a.a_memo then 1 else 0));
          ("status", Spans.I status);
          ("fresh_units", Spans.I a.a_fresh_units);
        ];
    Result.map (fun () -> a) checked

let submit ?parent tr conn ~case ~qos =
  let r =
    if Spans.enabled tr then submit_traced ?parent tr conn ~case ~qos
    else submit_plain conn ~case ~qos
  in
  count_op (Result.map (fun _ -> ()) r);
  Result.to_option r

(* Health gauges, read between requests on an existing connection. *)
type health = { mutable memo_hit_rate : float; mutable depth_max : int; mutable shed : int }

let new_health () = { memo_hit_rate = 0.; depth_max = 0; shed = 0 }

let poll_health h conn =
  match Client.health conn with
  | Ok v ->
    let num k = Option.bind (Json.member k v) Json.to_float in
    let int k = Option.bind (Json.member k v) Json.to_int in
    Option.iter (fun r -> h.memo_hit_rate <- r) (num "memo_hit_rate");
    Option.iter (fun d -> h.depth_max <- max h.depth_max d) (int "queue_depth");
    Option.iter (fun s -> h.shed <- max h.shed s) (int "shed_total")
  | Error e -> log "health probe failed: %s" (Fmt.str "%a" Client.pp_submit_error e)

let health_layers h =
  [
    ("server.memo_hit_rate", h.memo_hit_rate);
    ("server.queue_depth_max", float_of_int h.depth_max);
    ("server.shed_total", float_of_int h.shed);
  ]

let admit_run_layers answers =
  let admits = List.filter_map (fun a -> Option.map (fun k -> k -. a.a_send) a.a_ack) answers
  and runs = List.filter_map (fun a -> Option.map (fun k -> a.a_done -. k) a.a_ack) answers
  and positions = List.filter_map (fun a -> a.a_position) answers in
  (if admits = [] then []
   else
     [
       ("server.admit_ms.p50", ms (p50 admits));
       ("server.admit_ms.p90", ms (p90 admits));
       ("server.run_ms.p50", ms (p50 runs));
       ("server.run_ms.p90", ms (p90 runs));
     ])
  @
  if positions = [] then []
  else
    [
      ( "server.queue_position.mean",
        float_of_int (sumi positions) /. float_of_int (List.length positions) );
      ("server.queue_position.max", float_of_int (List.fold_left max 0 positions));
    ]

let tier_layers ~per answers =
  let tiers = List.concat_map (fun a -> a.a_tiers) answers in
  let count t = float_of_int (List.length (List.filter (( = ) t) tiers)) /. per in
  [
    ("verify.tier_exhaustive", count "exhaustive");
    ("verify.tier_pruned", count "pruned");
    ("verify.tier_sampled", count "sampled");
  ]

(* --- serve-mixed ------------------------------------------------------- *)

type round = {
  r_ready_s : float;
  r_a : answer list;
  r_b : answer list;
  r_rss_mb : float;
  r_journal_bytes : int;
  r_health : health;
  r_wall : float;
}

(* One round: a fresh daemon on a fresh journal.  Client A submits the
   15 digests once each in seeded order; client B probes, in seeded
   order, digests A has already had answered — memo hits that share the
   single executor with A's cold jobs.  Both loops are closed. *)
let mixed_round cfg tr i =
  let t0 = now () in
  let parent = Spans.fresh_id tr in
  let d, ready_s = spawn_daemon ~parent cfg tr ~tag:(Printf.sprintf "mixed-%d" i) in
  let mu = Mutex.create () and cv = Condition.create () in
  let answered = ref [] and a_done = ref false in
  let h = new_health () in
  let a_answers = ref [] and b_answers = ref [] in
  let finish_a () =
    Mutex.lock mu;
    a_done := true;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let client_a () =
    Fun.protect ~finally:finish_a @@ fun () ->
    let conn = Client.connect ~socket:d.socket in
    List.iter
      (fun (case, qos) ->
        (match submit ~parent tr conn ~case ~qos with
        | Some a ->
          a_answers := a :: !a_answers;
          Mutex.lock mu;
          answered := (case, qos) :: !answered;
          Condition.broadcast cv;
          Mutex.unlock mu
        | None -> ());
        if Spans.enabled tr then poll_health h conn)
      (shuffle (rng cfg ("mixed-a", i)) mixed_digests);
    Client.close conn
  in
  let client_b () =
    let st = rng cfg ("mixed-b", i) in
    let conn = Client.connect ~socket:d.socket in
    let rec next () =
      Mutex.lock mu;
      while !answered = [] && not !a_done do
        Condition.wait cv mu
      done;
      let pick =
        if !a_done then None
        else Some (List.nth !answered (Random.State.int st (List.length !answered)))
      in
      Mutex.unlock mu;
      match pick with
      | None -> ()
      | Some (case, qos) ->
        Option.iter (fun a -> b_answers := a :: !b_answers) (submit ~parent tr conn ~case ~qos);
        next ()
    in
    next ();
    Client.close conn
  in
  let ta = Thread.create client_a () and tb = Thread.create client_b () in
  Thread.join ta;
  Thread.join tb;
  let rss = vm_hwm_mb (string_of_int d.pid) in
  let bytes = dir_bytes d.journal in
  stop_daemon ~parent tr d;
  let t1 = now () in
  Spans.record tr ~id:parent "round" ~start:t0 ~stop:t1 ~args:[ ("round", Spans.I i) ];
  {
    r_ready_s = ready_s;
    r_a = List.rev !a_answers;
    r_b = List.rev !b_answers;
    r_rss_mb = rss;
    r_journal_bytes = bytes;
    r_health = h;
    r_wall = t1 -. t0;
  }

let mixed_phase cfg rounds tr ~seconds =
  let base = List.length !rounds in
  let mine = ref [] in
  ignore
    (timed_loop ~seconds (fun () ->
         let r = mixed_round cfg tr (base + List.length !mine) in
         mine := r :: !mine;
         r.r_wall));
  let mine = List.rev !mine in
  rounds := !rounds @ mine;
  let n_rounds = float_of_int (List.length mine) in
  let a = List.concat_map (fun r -> r.r_a) mine
  and b = List.concat_map (fun r -> r.r_b) mine in
  let cold = List.filter (fun x -> not x.a_memo) a in
  let cold_lat = List.map latency cold in
  if cold_lat = [] then fail "serve-mixed: no cold verdict";
  let h = new_health () in
  List.iter
    (fun r ->
      h.memo_hit_rate <- r.r_health.memo_hit_rate;
      h.depth_max <- max h.depth_max r.r_health.depth_max;
      h.shed <- h.shed + r.r_health.shed)
    mine;
  {
    ops_ms = List.map ms cold_lat;
    layers =
      admit_run_layers (a @ b) @ tier_layers ~per:n_rounds a @ health_layers h
      @ (match List.map latency b with
        | [] -> []
        | probe_lat ->
          [
            ("server.probe_ms.p50", ms (p50 probe_lat));
            ("server.probe_ms.p90", ms (p90 probe_lat));
          ])
      @ [
          ("journal.fresh_units", float_of_int (sumi (List.map (fun x -> x.a_fresh_units) cold)) /. n_rounds);
          ("journal.bytes", float_of_int (sumi (List.map (fun r -> r.r_journal_bytes) mine)) /. n_rounds);
        ];
  }

(* Cold service latency minus in-process verification of the same row,
   per row (gold, the unbudgeted tier), median over rows: what the
   service adds around the engine. *)
let cold_overhead_ms rounds tr =
  let cold =
    List.concat_map
      (fun r -> List.filter (fun a -> (not a.a_memo) && a.a_qos = Protocol.Gold) r.r_a)
      rounds
  in
  let per_row =
    List.filter_map
      (fun case ->
        match List.filter (fun a -> a.a_case = case) cold with
        | [] -> None
        | xs ->
          let c = Option.get (Registry.find case) in
          let t0 = now () in
          let reports = c.Registry.c_verify () in
          let t1 = now () in
          count_op (Outcome.of_row ~case ~exit_code:(Verify.exit_code reports));
          Spans.record tr "verify.row" ~start:t0 ~stop:t1
            ~args:[ ("case", Spans.S case); ("reference", Spans.I 1) ];
          Some (p50 (List.map latency xs) -. (t1 -. t0)))
      mixed_rows
  in
  ms (p50 per_row)

(* In-process journal replay: each row verified into a scratch journal,
   then timed verifying against it again — the replay the daemon runs
   for every memo hit, without the service around it. *)
let journal_replay_ms cfg tr =
  let dir = Filename.concat cfg.run_dir "replay.journal" in
  rm_rf dir;
  let j = Journal.openj dir in
  let times =
    List.map
      (fun case ->
        let c = Option.get (Registry.find case) in
        let verify () = Verify.with_engine ~journal:(Some j) c.Registry.c_verify in
        count_op (Outcome.of_row ~case ~exit_code:(Verify.exit_code (verify ())));
        let t0 = now () in
        let reports = verify () in
        let t1 = now () in
        count_op (Outcome.of_row ~case ~exit_code:(Verify.exit_code reports));
        Spans.record tr "journal.replay" ~start:t0 ~stop:t1 ~args:[ ("case", Spans.S case) ];
        t1 -. t0)
      mixed_rows
  in
  Journal.close j;
  rm_rf dir;
  ms (p50 times)

(* Uncontended memo hits: a daemon whose journal holds the rows' gold
   verdicts, resubmitted by one closed-loop client with no cold job
   ahead of them.  A verdict slower than [stall_s] is a stall — the
   progress thread's 250 ms sleep joined after the job. *)
let memo_burst_s = 3.
let stall_s = 0.1

let memo_burst cfg tr =
  let d, _ = spawn_daemon cfg tr ~tag:"memo" in
  let conn = Client.connect ~socket:d.socket in
  let gold = List.map (fun c -> (c, Protocol.Gold)) mixed_rows in
  List.iter (fun (case, qos) -> ignore (submit tr conn ~case ~qos)) gold;
  let st = rng cfg "memo-burst" in
  let answers = ref [] in
  let cpu0 = proc_cpu_s d.pid in
  let t0 = now () in
  while now () -. t0 < memo_burst_s do
    List.iter
      (fun (case, qos) ->
        Option.iter (fun a -> answers := a :: !answers) (submit tr conn ~case ~qos))
      (shuffle st gold)
  done;
  let wall = now () -. t0 in
  let cpu = proc_cpu_s d.pid -. cpu0 in
  Client.close conn;
  stop_daemon tr d;
  match List.map latency (List.filter (fun a -> a.a_memo) !answers) with
  | [] -> fail "memo burst: no memo verdict"
  | lat ->
    [
      ("server.memo_ms.p50", ms (p50 lat));
      ("server.memo_ms.p90", ms (p90 lat));
      ( "server.stalls_per_s",
        float_of_int (List.length (List.filter (fun l -> l > stall_s) lat)) /. wall );
      ("server.cpu_share", cpu /. wall);
    ]

(* --- Driving a workload ------------------------------------------------ *)

type result = {
  setup_s : float;
  peak_rss_mb : float;
  plain : phase;  (* spans off: the end-to-end figures *)
  traced : phase option;  (* spans on: the per-layer figures *)
  extra_layers : (string * float) list;
}

(* Without --trace one phase of [seconds]; with it, two halves — spans
   off, then on — so that their difference prices the tracing. *)
let phases cfg tr phase =
  if not cfg.trace then (phase (Spans.create ~enabled:false) ~seconds:cfg.seconds, None)
  else
    let plain = phase (Spans.create ~enabled:false) ~seconds:(cfg.seconds /. 2.) in
    (plain, Some (phase tr ~seconds:(cfg.seconds /. 2.)))

(* The lock rows once each, traced runs only: where the stuck-state
   closure dominates (every thread ends blocked once the interference
   budget is spent). *)
let lock_reference tr =
  let id = Spans.fresh_id tr in
  let t0 = now () in
  let runs = List.map (verify_row tr ~parent:id) lock_rows in
  Spans.record tr ~id "locks" ~start:t0 ~stop:(now ());
  let reports = List.concat_map (fun r -> r.rr_reports) runs in
  List.map (fun r -> ("verify.row_s." ^ slug r.rr_case, r.rr_s)) runs
  @ [
      ( "sched.locks.minor_words_per_state",
        minor_words reports /. float_of_int (states reports) );
      ("sched.locks.diverged", float_of_int (diverged reports));
    ]

let run_verify cfg tr =
  let setups = List.init probe_repeats (fun _ -> probe_setup ()) in
  let plain, traced = phases cfg tr (verify_phase cfg lockfree_rows) in
  let peak_rss_mb = vm_hwm_mb "self" in
  {
    setup_s = p50 setups;
    peak_rss_mb;
    plain;
    traced;
    extra_layers = (if cfg.trace then lock_reference tr else []);
  }

let run_mixed cfg tr =
  let rounds = ref [] in
  let plain, traced = phases cfg tr (mixed_phase cfg rounds) in
  let rounds = !rounds in
  let ready = List.map (fun r -> r.r_ready_s) rounds in
  let extra =
    if cfg.trace then
      [
        ("server.ready_s", p50 ready);
        ("server.cold_overhead_ms", cold_overhead_ms rounds tr);
        ("journal.replay_ms", journal_replay_ms cfg tr);
      ]
      @ memo_burst cfg tr
    else []
  in
  {
    (* each round's set-up is its daemon's spawn-to-ready *)
    setup_s = p50 ready;
    peak_rss_mb = p50 (List.map (fun r -> r.r_rss_mb) rounds);
    plain;
    traced;
    extra_layers = extra;
  }

(* --- Output ------------------------------------------------------------ *)

let metric_json catalogue values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v =
           match List.assoc_opt name values with
           | Some v when Float.is_finite v -> v
           | Some _ -> fail "metric %s is not finite" name
           | None -> 0. (* the workload does not exercise this layer *)
         in
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       catalogue)

let layers_of cfg tr (r : result) =
  let traced = Option.get r.traced in
  let overhead =
    List.map
      (fun (m, stat) ->
        let u = stat r.plain.ops_ms and t = stat traced.ops_ms in
        ("trace.overhead_share." ^ m, (t -. u) /. u))
      (op_stats cfg.workload)
  in
  let spans = Spans.spans tr in
  let children = Spans.children_index spans in
  let self = Hashtbl.create 16 in
  List.iter
    (fun (s : Spans.span) ->
      let prev = Option.value (Hashtbl.find_opt self s.Spans.name) ~default:0. in
      Hashtbl.replace self s.Spans.name (prev +. Spans.self_time ~children s))
    spans;
  Hashtbl.iter (fun name t -> log "self time of %s spans: %.3f s" name t) self;
  let checks =
    [
      ("pass", [ "verify.row" ]);
      ("client.submit", [ "server.admit"; "server.run" ]);
    ]
  in
  let gap =
    List.fold_left
      (fun worst (parent, parts) ->
        let n, g = Spans.reconcile spans ~parent ~parts in
        if n > 0 then log "reconcile: %d %s spans, gap %.4f" n parent g;
        Float.max worst g)
      0. checks
  in
  (traced.layers @ r.extra_layers @ overhead
  @ [
      ("op.p50_ms", p50 traced.ops_ms);
      ("op.p90_ms", p90 traced.ops_ms);
      ("op.samples", float_of_int (List.length traced.ops_ms));
      ("trace.reconcile_gap", gap);
    ],
   gap)

let reconcile_limit = 0.05

let main_run cfg =
  if not (List.mem cfg.workload workloads) then
    fail "unknown workload %S (expected one of: %s)" cfg.workload
      (String.concat ", " workloads);
  List.iter
    (fun r -> if Registry.find r = None then fail "row %S is not in the registry" r)
    all_rows;
  (try Unix.mkdir cfg.run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tr = Spans.create ~enabled:cfg.trace in
  let r =
    match cfg.workload with
    | "verify-lockfree" -> run_verify cfg tr
    | _ -> run_mixed cfg tr
  in
  let ops = r.plain.ops_ms in
  let e2e =
    [
      ("setup_s", r.setup_s);
      ("op_latency_ms", Stats.percentile (gated_percentile cfg.workload) ops);
      ("peak_rss_mb", r.peak_rss_mb);
    ]
  in
  List.iter (fun (k, v) -> log "%s = %.6g" k v) e2e;
  log "op latency: p50 %.6g ms, p90 %.6g ms over %d samples (tail the count supports: %s)"
    (p50 ops) (p90 ops) (List.length ops)
    (match Stats.tail_percentile (List.length ops) with
    | Some p -> Printf.sprintf "p%g" p
    | None -> "none");
  let wrong = List.exists Outcome.is_wrong_verdict !failures in
  let metrics, correct =
    if cfg.trace then begin
      let layers, gap = layers_of cfg tr r in
      let path = Filename.concat cfg.run_dir ("trace-" ^ cfg.workload ^ ".json") in
      Spans.write_chrome tr path;
      log "spans written to %s" path;
      if gap > reconcile_limit then
        log "layers do not sum to end-to-end: worst gap %.4f > %.2f" gap reconcile_limit;
      (metric_json per_layer layers, (not wrong) && gap <= reconcile_limit)
    end
    else (metric_json end_to_end e2e, not wrong)
  in
  List.iter
    (fun k ->
      let n = List.length (List.filter (fun f -> Outcome.kind f = k) !failures) in
      if n > 0 then log "failures of kind %s: %d" k n)
    [ "wrong-verdict"; "shed"; "error-frame"; "transport"; "timeout" ];
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int (List.length !failures));
            ("metrics", metrics);
          ]))

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 --fcsl PATH --run-dir DIR\n\
    \       bench.exe --probe";
  exit 2

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  match Array.to_list Sys.argv |> List.tl with
  | [ "--probe" ] -> probe_main ()
  | args -> (
    let rec parse acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let kv = parse [] args in
    let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
    let cfg =
      try
        {
          workload = get "workload";
          seed = int_of_string (get "seed");
          seconds = float_of_string (get "seconds");
          trace =
            (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
          fcsl = get "fcsl";
          run_dir = get "run-dir";
        }
      with Failure _ -> usage ()
    in
    at_exit kill_children;
    try main_run cfg with
    | Harness msg ->
      log "error: %s" msg;
      exit 1
    | e ->
      log "error: %s" (Printexc.to_string e);
      exit 1)
