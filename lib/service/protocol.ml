(* The wire protocol of the verification service: newline-delimited
   JSON frames over a Unix-domain socket.  One request frame per line
   from the client; the server answers with one or more response frames
   (progress streams, then exactly one terminal frame per request).

   Malformed frames are data, not exceptions: they parse to a
   [Crash.Protocol_error] that the server echoes back in a structured
   error frame, so a fuzzing client (or the torn-frames test)
   can never crash the daemon or silently lose a diagnosis. *)

open Fcsl_core

(* --- QoS tiers --------------------------------------------------------- *)

type qos = Gold | Silver | Bronze

let qos_name = function
  | Gold -> "gold"
  | Silver -> "silver"
  | Bronze -> "bronze"

let qos_of_name = function
  | "gold" -> Some Gold
  | "silver" -> Some Silver
  | "bronze" -> Some Bronze
  | _ -> None

(* One rung down the ladder: what an overloaded server demotes a
   bounded-or-unbounded submission to.  Bronze has nowhere lower to go
   — under pressure it is shed, not demoted. *)
let qos_demote = function Gold -> Silver | Silver -> Bronze | Bronze -> Bronze

(* The ladder mapping: gold runs unbounded (conclusive or bust), silver
   gets a generous wall clock, bronze a tight one plus a state ceiling —
   each degrades through Verify's ladder instead of hanging.  [cancel]
   is the client-disconnect probe threaded into every tier. *)
let qos_limits ?tick_hook ?cancel = function
  | Gold -> Budget.limits ?tick_hook ?cancel ()
  | Silver -> Budget.limits ?tick_hook ?cancel ~deadline_s:20. ()
  | Bronze ->
    Budget.limits ?tick_hook ?cancel ~deadline_s:5. ~max_states:20_000 ()

(* The service-level cache key: which case under which QoS tier.  The
   engine-level params digest (Verify.params_digest) already keys the
   per-spec verdicts inside the journal; this coarser digest keys whole
   jobs, and embeds the case name so digests never collide across
   cases. *)
let digest ~case ~qos = Printf.sprintf "case=%s;qos=%s" case (qos_name qos)

let case_of_digest d =
  match String.index_opt d ';' with
  | Some i when String.length d > 5 && String.sub d 0 5 = "case=" ->
    Some (String.sub d 5 (i - 5))
  | _ -> None

let qos_of_digest d =
  match String.index_opt d ';' with
  | Some i ->
    let rest = String.sub d (i + 1) (String.length d - i - 1) in
    if String.length rest > 4 && String.sub rest 0 4 = "qos=" then
      qos_of_name (String.sub rest 4 (String.length rest - 4))
    else None
  | None -> None

(* --- Requests ---------------------------------------------------------- *)

type request =
  | Ping
  | Submit of { case : string; qos : qos }
  | Status
  | Health
  | Ready
  | Cancel of int
  | Drain

let proto_error msg = Crash.make Crash.Protocol_error msg

let request_of_json (v : Json.t) : (request, Crash.t) result =
  match v with
  | Json.Obj _ -> (
    match Option.bind (Json.member "op" v) Json.to_str with
    | None -> Error (proto_error "frame has no string \"op\" field")
    | Some "ping" -> Ok Ping
    | Some "status" -> Ok Status
    | Some "health" -> Ok Health
    | Some "ready" -> Ok Ready
    | Some "drain" -> Ok Drain
    | Some "cancel" -> (
      match Option.bind (Json.member "job" v) Json.to_int with
      | Some id -> Ok (Cancel id)
      | None -> Error (proto_error "cancel needs an integer \"job\" field"))
    | Some "submit" -> (
      match Option.bind (Json.member "case" v) Json.to_str with
      | None -> Error (proto_error "submit needs a string \"case\" field")
      | Some case -> (
        match Json.member "qos" v with
        | None -> Ok (Submit { case; qos = Gold })
        | Some q -> (
          match Option.bind (Json.to_str q) qos_of_name with
          | Some qos -> Ok (Submit { case; qos })
          | None ->
            Error
              (proto_error
                 "submit \"qos\" must be \"gold\", \"silver\" or \"bronze\""))))
    | Some op -> Error (proto_error (Printf.sprintf "unknown op %S" op)))
  | _ -> Error (proto_error "frame is not a JSON object")

let parse_request line =
  match Json.parse line with
  | Error e -> Error (proto_error ("bad JSON frame: " ^ e))
  | Ok v -> request_of_json v

let request_to_json = function
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Status -> Json.Obj [ ("op", Json.Str "status") ]
  | Health -> Json.Obj [ ("op", Json.Str "health") ]
  | Ready -> Json.Obj [ ("op", Json.Str "ready") ]
  | Drain -> Json.Obj [ ("op", Json.Str "drain") ]
  | Cancel id -> Json.Obj [ ("op", Json.Str "cancel"); ("job", Json.Int id) ]
  | Submit { case; qos } ->
    Json.Obj
      [
        ("op", Json.Str "submit");
        ("case", Json.Str case);
        ("qos", Json.Str (qos_name qos));
      ]

(* --- Response frames --------------------------------------------------- *)

(* Every response is a one-line JSON object with a "type" tag.  Frame
   builders return the rendered line (no trailing newline). *)

let frame fields = Json.to_string (Json.Obj fields)
let pong = frame [ ("type", Json.Str "pong") ]

let ack ~job ~digest:d ~position ~cached =
  frame
    [
      ("type", Json.Str "ack");
      ("job", Json.Int job);
      ("digest", Json.Str d);
      ("position", Json.Int position);
      ("cached", Json.Bool cached);
    ]

let shed ~reason ~queue =
  frame
    [
      ("type", Json.Str "shed");
      ("reason", Json.Str reason);
      ("queue", Json.Int queue);
    ]

let progress ~job ~states =
  frame
    [
      ("type", Json.Str "progress");
      ("job", Json.Int job);
      ("states", Json.Int states);
    ]

let drained = frame [ ("type", Json.Str "draining") ]

(* --- Health and readiness ---------------------------------------------- *)

type overload_state = Normal | Overloaded

let overload_state_name = function
  | Normal -> "normal"
  | Overloaded -> "overloaded"

(* The one health rendering shared by the live `health` frame, the
   live `status` frame's extra fields, and the offline
   [fcsl jobs status --json] (which knows only the journal-derived
   subset and passes [None] for the live-only gauges). *)
let health_fields ?uptime_s ?queue_depth ?inflight ?memo_hit_rate
    ?journal_lag_bytes ?journal_fault ~shed_total ~overload_state () =
  let opt_f = function Some f -> Json.Float f | None -> Json.Null in
  let opt_i = function Some i -> Json.Int i | None -> Json.Null in
  [
    ("uptime_s", opt_f uptime_s);
    ("queue_depth", opt_i queue_depth);
    ("inflight", opt_i inflight);
    ("shed_total", Json.Int shed_total);
    ("memo_hit_rate", opt_f memo_hit_rate);
    ("overload_state", Json.Str (overload_state_name overload_state));
    ("journal_lag_bytes", opt_i journal_lag_bytes);
    ( "journal_fault",
      match journal_fault with
      | Some c -> Json.Str (Crash.message c)
      | None -> Json.Null );
  ]

(* Liveness vs readiness: a daemon that answers at all is live; it is
   *ready* only when it will still accept fresh work (not draining).
   An overloaded daemon is ready — it degrades and sheds by policy —
   but the state rides along so orchestrators can stop routing to it
   early. *)
let ready ~ready:r ~draining ~overload_state =
  frame
    [
      ("type", Json.Str "ready");
      ("ready", Json.Bool r);
      ("draining", Json.Bool draining);
      ("overload_state", Json.Str (overload_state_name overload_state));
    ]

let error_frame ?job crash =
  let job = match job with Some id -> [ ("job", Json.Int id) ] | None -> [] in
  frame
    ((("type", Json.Str "error") :: job) @ [ ("crash", Crash.to_json crash) ])

(* --- Verdict rendering ------------------------------------------------- *)

(* Timing-stripped by construction: elapsed seconds and heap words never
   enter the wire rendering, so a resumed daemon's verdicts diff
   byte-identical against an uninterrupted run's. *)
let report_json (r : Verify.report) : Json.t =
  let crashes fs =
    Json.Arr
      (List.map (fun (f : Verify.failure) -> Crash.to_json f.Verify.crash) fs)
  in
  let expl =
    match r.Verify.expl with
    | None -> Json.Null
    | Some x ->
      Json.Obj
        [
          ("memo_hits", Json.Int x.Verify.x_memo_hits);
          ("memo_misses", Json.Int x.Verify.x_memo_misses);
        ]
  in
  Json.Obj
    [
      ("spec", Json.Str r.Verify.spec_name);
      ("tier", Json.Str (Verify.tier_name r.Verify.tier));
      ( "seed",
        match r.Verify.seed with Some s -> Json.Int s | None -> Json.Null );
      ("initial_states", Json.Int r.Verify.initial_states);
      ("outcomes", Json.Int r.Verify.outcomes);
      ("diverged", Json.Int r.Verify.diverged);
      ("complete", Json.Bool r.Verify.complete);
      ("states", Json.Int r.Verify.states);
      ("failures", crashes r.Verify.failures);
      ("worker_crashes", crashes r.Verify.worker_crashes);
      ( "tripped",
        match r.Verify.budget with
        | Some { Budget.st_tripped = Some t; _ } -> Json.Str t
        | _ -> Json.Null );
      ("expl", expl);
    ]

let verdict ~job ~case ~digest:d ~memo ~fresh_units ~cancelled
    ?(degraded = false) ~reports () =
  frame
    [
      ("type", Json.Str "verdict");
      ("job", Json.Int job);
      ("case", Json.Str case);
      ("digest", Json.Str d);
      ("status", Json.Int (Verify.exit_code reports));
      ("memo", Json.Bool memo);
      ("fresh_units", Json.Int fresh_units);
      ("cancelled", Json.Bool cancelled);
      (* the QoS-demotion marker: the verdict was computed under a
         lower budget tier than the submission asked for, because the
         server was overloaded when the job started.  Excluded from
         the canonical projection (a flooded run legitimately differs
         here) and never memoized as the full-tier answer. *)
      ("degraded", Json.Bool degraded);
      ("reports", Json.Arr (List.map report_json reports));
    ]

(* The diff-stable subset of a verdict: what the CI resilience proof
   compares between an uninterrupted run and a kill-9'd-and-resumed one.
   Job ids, memo flags, fresh-unit counts and the per-report exploration
   counters legitimately differ across those runs (a replayed verdict
   has no exploration profile); case, status and the timing-stripped
   verdict content must not. *)
let canonical_verdict (v : Json.t) : Json.t =
  let get k = Option.value (Json.member k v) ~default:Json.Null in
  let reports =
    match get "reports" with
    | Json.Arr rs ->
      Json.Arr
        (List.map
           (function
             | Json.Obj kvs ->
               Json.Obj (List.filter (fun (k, _) -> k <> "expl") kvs)
             | r -> r)
           rs)
    | r -> r
  in
  Json.Obj [ ("case", get "case"); ("status", get "status"); ("reports", reports) ]

(* --- Job-status rendering ---------------------------------------------- *)

(* v2: the health fields (uptime_s, queue_depth, inflight, shed_total,
   memo_hit_rate, overload_state, journal_lag_bytes, journal_fault)
   joined the status/jobs renderings. *)
let schema_version = 2

(* The one renderer both the offline CLI ([fcsl jobs status DIR --json])
   and the daemon's status endpoint go through, so the two can never
   drift.  [extra] lets the live endpoint add queue/drain fields on top
   of the journal-derived rows. *)
let jobs_json ?(extra = []) (jobs : Journal.job list) : Json.t
    =
  let job (j : Journal.job) =
    Json.Obj
      [
        ("spec", Json.Str j.Journal.j_spec);
        ("params", Json.Str j.Journal.j_params);
        ("status", Json.Str (Journal.status_name j.Journal.j_status));
        ( "tier",
          match j.Journal.j_tier with
          | Some t -> Json.Str t
          | None -> Json.Null );
        ("units", Json.Int j.Journal.j_units);
        ("states", Json.Int j.Journal.j_states);
        ("failures", Json.Int j.Journal.j_failures);
        ( "tripped",
          match j.Journal.j_budget with
          | Some { Budget.st_tripped = Some t; _ } -> Json.Str t
          | _ -> Json.Null );
      ]
  in
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: (extra @ [ ("jobs", Json.Arr (List.map job jobs)) ]))

let jobs_to_json ?extra jobs = Json.to_string (jobs_json ?extra jobs)
