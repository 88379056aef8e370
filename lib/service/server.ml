(* The verification daemon: accept loop + per-connection reader threads
   + one executor thread, sharing a journal that holds every spec
   verdict and doubles as the crash-recovery ledger.

   Why a single executor: the Verify engine ([with_engine]) is one
   process-global value, so two jobs running under different QoS
   budgets concurrently would each install theirs over the other's.
   Cold jobs therefore run one at a time —
   each exploration still fans out over [sc_jobs] domains internally,
   which is where the parallelism that matters lives.  A memo hit is
   no job: its reader thread answers it from the table of finished
   verdicts.  Everything else is fully concurrent.

   Robustness invariants, in one place:
   - overload: cold submissions past [sc_queue_bound] get a structured
     shed frame; memo hits are always answered (they cost no
     exploration, so shedding one would be degradation for nothing);
   - disconnects: a job whose last waiter hangs up has its budget's
     cancel probe flipped; the exploration winds down cooperatively
     within one tick and the aborted verdict is never journaled;
   - crashes: the job ledger (synthetic "job/DIGEST" records in the
     same WAL) marks submissions at enqueue; a daemon restarted with
     [sc_resume] re-enqueues exactly the ledger's in-flight entries and
     refills the verdict table from the finished ones;
   - drain: SIGTERM (or a drain frame) stops intake, finishes the
     queue, flushes the journal and exits 0. *)

open Fcsl_core
open Fcsl_report

type config = {
  sc_socket : string;
  sc_journal_dir : string;
  sc_resume : bool;
  sc_fsync : Journal.fsync_policy option;
  sc_queue_bound : int;
  sc_jobs : int;
  sc_signals : bool;
  sc_job_delay_s : float;
  sc_overload_high : int;
  sc_overload_low : int;
  sc_rate : (float * int) option;
}

let config ?(resume = false) ?fsync ?(queue_bound = 16) ?(jobs = 1)
    ?(signals = true) ?(job_delay_s = 0.) ?overload_high
    ?overload_low ?rate ~socket ~journal_dir () =
  (* Watermark defaults frame the queue bound: pressure is declared at
     3/4 of capacity and released at 1/4, so the overload state can't
     flap on a queue oscillating around one threshold. *)
  let high =
    match overload_high with
    | Some h -> max 1 h
    | None -> max 1 (queue_bound * 3 / 4)
  in
  let low =
    match overload_low with
    | Some l -> max 0 (min l (high - 1))
    | None -> min (high - 1) (queue_bound / 4)
  in
  {
    sc_socket = socket;
    sc_journal_dir = journal_dir;
    sc_resume = resume;
    sc_fsync = fsync;
    sc_queue_bound = queue_bound;
    sc_jobs = jobs;
    sc_signals = signals;
    sc_job_delay_s = job_delay_s;
    sc_overload_high = high;
    sc_overload_low = low;
    sc_rate = rate;
  }

(* --- Connections ------------------------------------------------------- *)

type conn = {
  cn_fd : Unix.file_descr;
  cn_mu : Mutex.t;
  mutable cn_alive : bool;
  (* admission control: a per-connection token bucket (when the config
     arms one).  Refilled lazily at each submit under the server lock. *)
  mutable cn_tokens : float;
  mutable cn_refill_t : float;
}

(* Frame writes are mutexed per connection (the executor, the progress
   thread and the reader thread all answer on the same socket) and go
   through [Wire.write_line], which survives EINTR and partial writes
   — a slow or signal-interrupted socket must never tear a frame
   mid-line.  A hard write failure (dead peer, stalled past the bound)
   just marks the connection dead: the disconnect path owns the
   cleanup. *)
let send conn line =
  Mutex.lock conn.cn_mu;
  (try if conn.cn_alive then Wire.write_line conn.cn_fd line
   with _ -> conn.cn_alive <- false);
  Mutex.unlock conn.cn_mu

(* --- Jobs -------------------------------------------------------------- *)

type job = {
  jb_id : int;
  jb_case : string;
  jb_qos : Protocol.qos;  (* the tier the client asked for (digest key) *)
  jb_run_qos : Protocol.qos;
      (* the tier the job actually runs under: one rung below [jb_qos]
         when admission happened under overload.  A demoted verdict is
         marked [degraded] and never memoized as the full-tier answer. *)
  jb_digest : string;
  jb_keep : bool;  (* resumed from the ledger: runs without waiters *)
  jb_cancel : bool Atomic.t;
  jb_ticks : int Atomic.t;
  mutable jb_state : [ `Queued | `Running | `Done | `Cancelled ];
  mutable jb_waiters : conn list;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  cv : Condition.t;  (* wakes the executor: new work or drain *)
  jrnl : Journal.t;
  mutable cold : job list;  (* FIFO, bounded by sc_queue_bound *)
  live : (string, job) Hashtbl.t;  (* digest -> queued/running job *)
  verdicts : (string, Verify.report list) Hashtbl.t;
      (* digest -> finished full-tier verdict: the memo, at most one
         entry per case and tier *)
  mutable next_id : int;
  mutable draining : bool;
  mutable exec_done : bool;
  mutable conns : conn list;
  stop_req : bool Atomic.t;  (* set from the SIGTERM handler *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
      (* the progress sampler's wake channel, a self-pipe: one per
         server, made at [create], so running a job never needs a
         fresh descriptor *)
  (* health gauges (all under [mu]) *)
  started : float;
  mutable overload : Protocol.overload_state;
  mutable shed_total : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

(* One ledger spec per digest, so compaction, which keeps the newest
   begin per spec, keeps every tier's in-flight job. *)
let ledger_spec digest = "job/" ^ digest

let is_ledger_spec s =
  String.length s > 4 && String.sub s 0 4 = "job/"

(* Shed decisions are journaled under their own spec namespace so
   [--resume] restores the overload accounting honestly: the record's
   states field carries the *cumulative* shed count, so recovering the
   maximum over surviving records rebuilds the counter even after
   compaction collapses duplicates. *)
let shed_spec case = "shed/" ^ case

let is_shed_spec s = String.length s > 5 && String.sub s 0 5 = "shed/"

let shed_total_of_records records =
  List.fold_left
    (fun acc -> function
      | Journal.Spec_done ri when is_shed_spec ri.Journal.ri_spec ->
        max acc ri.Journal.ri_states
      | _ -> acc)
    0 records

let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The service's own verdict records (the job and shed ledgers) explore
   nothing: a spec, a digest, a tier and a count. *)
let ledger_record ~spec ~params ~tier ~complete ~states ~budget =
  Journal.Spec_done
    {
      Journal.ri_spec = spec;
      ri_params = params;
      ri_tier = tier;
      ri_seed = None;
      ri_initial_states = 0;
      ri_outcomes = 0;
      ri_diverged = 0;
      ri_complete = complete;
      ri_states = states;
      ri_failures = [];
      ri_worker_crashes = [];
      ri_budget = budget;
    }

(* A ledger record for the job itself, riding the same WAL as the spec
   verdicts.  [tier] distinguishes a finished job ("service") from a
   cancelled one ("service-cancelled"): only the former is a memo hit,
   and neither resumes. *)
let ledger_done t job ~tier ~cancelled ~elapsed_s ~states =
  Journal.append t.jrnl
    (ledger_record ~spec:(ledger_spec job.jb_digest) ~params:job.jb_digest
       ~tier ~complete:(not cancelled) ~states
       ~budget:
         (if cancelled then
            Some
              {
                Budget.st_elapsed_s = elapsed_s;
                st_states = states;
                st_major_words = 0;
                st_tripped = Some (Budget.reason_name Budget.Cancelled);
              }
          else None));
  Journal.flush t.jrnl

(* --- Overload state machine -------------------------------------------- *)

(* Hysteresis on the cold-queue depth: pressure is declared at the high
   watermark and only released at the low one.  Called under [mu]
   whenever the cold queue changes length. *)
let update_overload t =
  let depth = List.length t.cold in
  match t.overload with
  | Protocol.Normal ->
    if depth >= t.cfg.sc_overload_high then t.overload <- Protocol.Overloaded
  | Protocol.Overloaded ->
    if depth <= t.cfg.sc_overload_low then t.overload <- Protocol.Normal

(* Answer a submission with a structured shed frame, count it, and
   journal the decision (group-committed — a flood must not turn every
   shed into an fsync).  Called under [mu]. *)
let shed_reply t ~case ~digest ~reason =
  t.shed_total <- t.shed_total + 1;
  Journal.append t.jrnl
    (ledger_record ~spec:(shed_spec case) ~params:digest ~tier:"service-shed"
       ~complete:true ~states:t.shed_total ~budget:None);
  Protocol.shed ~reason ~queue:(List.length t.cold)

(* Lazy token-bucket refill; [true] when the submission may pass.
   Called under [mu]. *)
let admit_rate t conn =
  match t.cfg.sc_rate with
  | None -> true
  | Some (rate, burst) ->
    let tnow = now () in
    conn.cn_tokens <-
      Float.min (float_of_int burst)
        (conn.cn_tokens +. ((tnow -. conn.cn_refill_t) *. rate));
    conn.cn_refill_t <- tnow;
    if conn.cn_tokens >= 1. then begin
      conn.cn_tokens <- conn.cn_tokens -. 1.;
      true
    end
    else false

(* --- Creation and resume ----------------------------------------------- *)

let mkjob t ~case ~qos ?(run_qos = None) ~keep () =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    jb_id = id;
    jb_case = case;
    jb_qos = qos;
    jb_run_qos = Option.value run_qos ~default:qos;
    jb_digest = Protocol.digest ~case ~qos;
    jb_keep = keep;
    jb_cancel = Atomic.make false;
    jb_ticks = Atomic.make 0;
    jb_state = `Queued;
    jb_waiters = [];
  }

let create cfg =
  let jrnl =
    Journal.openj ?fsync:cfg.sc_fsync ~resume:cfg.sc_resume cfg.sc_journal_dir
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg;
      mu = Mutex.create ();
      cv = Condition.create ();
      jrnl;
      cold = [];
      live = Hashtbl.create 16;
      verdicts = Hashtbl.create 16;
      next_id = 1;
      draining = false;
      exec_done = false;
      conns = [];
      stop_req = Atomic.make false;
      wake_r;
      wake_w;
      started = now ();
      overload = Protocol.Normal;
      shed_total = 0;
      memo_hits = 0;
      memo_misses = 0;
    }
  in
  (* Crash recovery: one pass over the ledger, keyed by params (the
     digest, so journals with one "job/CASE" spec for every tier resume
     too); a digest's newest record decides.  A begin — accepted, never
     finished, never cancelled — is re-enqueued as a waiter-less keeper.
     A full-tier verdict is replayed into the table while the engine is
     free; that explores nothing (the ledger record follows its spec
     verdicts, and a torn tail only cuts a suffix), and a replay that
     raises leaves its digest to run cold.  The shed ledger restores the
     cumulative shed counter. *)
  if cfg.sc_resume then begin
    let latest = Hashtbl.create 16 and order = ref [] in
    let note digest tier =
      if not (Hashtbl.mem latest digest) then order := digest :: !order;
      Hashtbl.replace latest digest tier
    in
    let records = Journal.recovered jrnl in
    t.shed_total <- shed_total_of_records records;
    List.iter
      (function
        | Journal.Spec_done ri when is_ledger_spec ri.Journal.ri_spec ->
          note ri.Journal.ri_params (Some ri.Journal.ri_tier)
        | Journal.Spec_begin { spec; params } when is_ledger_spec spec ->
          note params None
        | _ -> ())
      records;
    List.iter
      (fun digest ->
        match
          ( Hashtbl.find latest digest,
            Option.bind (Protocol.case_of_digest digest) Registry.find,
            Protocol.qos_of_digest digest )
        with
        | None, Some c, Some qos ->
          let job = mkjob t ~case:c.Registry.c_name ~qos ~keep:true () in
          Hashtbl.replace t.live job.jb_digest job;
          t.cold <- t.cold @ [ job ]
        | Some "service", Some c, Some qos -> (
          match
            Verify.with_engine ~jobs:cfg.sc_jobs
              ~budget:(Protocol.qos_limits qos) ~journal:(Some jrnl)
              c.Registry.c_verify
          with
          | reports -> Hashtbl.replace t.verdicts digest reports
          | exception _ -> ())
        | _ -> ())
      (List.rev !order);
    (* the overload state is a function of the restored queue depth —
       recomputing it here is exactly the honest restoration: a daemon
       that died overloaded resumes overloaded *)
    if List.length t.cold >= t.cfg.sc_overload_high then
      t.overload <- Protocol.Overloaded
  end;
  t

let drain t =
  locked t (fun () ->
      if not t.draining then begin
        t.draining <- true;
        Condition.broadcast t.cv
      end)

let stop t = drain t

(* --- The executor ------------------------------------------------------ *)

let notify_waiters t job frame =
  let waiters = locked t (fun () -> job.jb_waiters) in
  List.iter (fun c -> send c frame) waiters

(* The progress cadence: one frame per period while the job's tick
   counter advances. *)
let progress_period_s = 0.25

(* Wait until [deadline] or until the executor writes the wake pipe,
   whichever comes first.  A signal landing mid-wait (the SIGTERM
   handler) resumes the wait: only the wake may cut a period short. *)
let rec await_wake t deadline =
  let left = deadline -. now () in
  if left > 0. then
    try ignore (Unix.select [ t.wake_r ] [] [] left)
    with Unix.Unix_error (Unix.EINTR, _, _) -> await_wake t deadline

(* A failed wake write only costs the sampler the rest of its period,
   so it is not an error. *)
let wake t =
  try ignore (Unix.single_write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error _ -> ()

(* Empty the pipe once the sampler is joined, so this job's wake cannot
   cut the next job's first period short. *)
let drain_wake t =
  let buf = Bytes.create 8 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()  (* EAGAIN: empty *)
  in
  go ()

let run_job t job =
  (* The chaos/test hook: an artificial pre-exploration delay makes
     "kill the client mid-job" and "fill the queue" deterministic.  It
     polls the cancel flag so a dead client doesn't hold the executor
     for the full delay. *)
  let rec delay left =
    if left > 0. && not (Atomic.get job.jb_cancel) then begin
      let step = Float.min 0.02 left in
      Thread.delay step;
      delay (left -. step)
    end
  in
  delay t.cfg.sc_job_delay_s;
  let case =
    match Registry.find job.jb_case with
    | Some c -> c
    | None -> assert false (* submit rejects unknown cases *)
  in
  (* [jb_run_qos] — the admission-time tier, demoted under overload —
     not the digest tier the client asked for *)
  let lim =
    Protocol.qos_limits
      ~tick_hook:(fun () -> Atomic.incr job.jb_ticks)
      ~cancel:(fun () -> Atomic.get job.jb_cancel)
      job.jb_run_qos
  in
  (* Progress frames ride a side thread: the tick hook runs on worker
     domains inside the exploration and must stay allocation-trivial,
     so it only bumps an atomic that this thread samples.  The
     executor joins the sampler before it sends the verdict, which is
     what keeps every progress frame ahead of the verdict; so the
     sampler's wait between samples must be interruptible.  A plain
     sleep would hold each verdict until the current period ended, a
     fixed quarter-second on jobs that explore in milliseconds.  It
     waits on the server's wake pipe instead, which the executor
     writes as soon as the engine returns. *)
  let progressing = Atomic.make true in
  let progress_thread =
    Thread.create
      (fun () ->
        let last = ref 0 in
        while Atomic.get progressing do
          await_wake t (now () +. progress_period_s);
          let n = Atomic.get job.jb_ticks in
          if n > !last && Atomic.get progressing then begin
            last := n;
            notify_waiters t job (Protocol.progress ~job:job.jb_id ~states:n)
          end
        done)
      ()
  in
  let started = now () in
  let units0 = Journal.completed_units t.jrnl in
  let outcome =
    try
      Ok
        (Verify.with_engine ~jobs:t.cfg.sc_jobs ~budget:lim
           ~journal:(Some t.jrnl) case.Registry.c_verify)
    with e -> Error (Crash.of_exn e)
  in
  Atomic.set progressing false;
  wake t;
  Thread.join progress_thread;
  drain_wake t;
  let elapsed_s = now () -. started in
  let fresh_units = Journal.completed_units t.jrnl - units0 in
  let tier, frame =
    match outcome with
    | Ok reports ->
      let cancelled = List.exists Verify.cancelled reports in
      let degraded = job.jb_run_qos <> job.jb_qos in
      (* fresh_units = 0 <=> every spec verdict replayed from the
         journal: the memo proof the tests and CI assert on.  A demoted
         job's ledger tier is "service-degraded": real evidence for the
         waiters it answers, but never a memo hit for its full-tier
         digest — that would be a phantom verdict. *)
      ( (if cancelled then "service-cancelled"
         else if degraded then "service-degraded"
         else "service"),
        Protocol.verdict ~job:job.jb_id ~case:job.jb_case ~digest:job.jb_digest
          ~memo:(fresh_units = 0) ~fresh_units ~cancelled ~degraded ~reports () )
    | Error crash ->
      (* An exception escaping the engine is an internal error; the
         ledger keeps the job out of the resume set (re-running a
         crasher in a loop would be a restart storm), and the client
         gets the structured crash. *)
      ("service-error", Protocol.error_frame ~job:job.jb_id crash)
  in
  (* Mark the job done, publish its verdict, unmap it and snapshot the
     waiters in ONE critical section before broadcasting the verdict: a
     submit racing this completion must either attach before the
     snapshot (and so receive the frame below) or find the job gone and
     the verdict table already answering.  Flipping the state after the
     broadcast leaves a window where a freshly-attached waiter is acked
     but never answered. *)
  let waiters =
    locked t (fun () ->
        job.jb_state <- `Done;
        (match outcome with
        | Ok reports when tier = "service" ->
          Hashtbl.replace t.verdicts job.jb_digest reports
        | _ -> ());
        (* Only unmap the digest if it still maps to this job: a
           cancelled-then-resubmitted digest already points at its
           successor. *)
        (match Hashtbl.find_opt t.live job.jb_digest with
        | Some j when j == job -> Hashtbl.remove t.live job.jb_digest
        | _ -> ());
        job.jb_waiters)
  in
  (* The ledger record goes out after the table answers for the digest,
     so whoever reads it off disk finds the memo serving.  A daemon
     killed between the two re-runs the job on resume, which replays
     its spec verdicts: no verdict can change. *)
  ledger_done t job ~tier
    ~cancelled:(tier = "service-cancelled" || tier = "service-error")
    ~elapsed_s ~states:(Atomic.get job.jb_ticks);
  List.iter (fun c -> send c frame) waiters

let exec_loop t =
  let rec next () =
    Mutex.lock t.mu;
    let rec wait () =
      match t.cold with
      | j :: rest ->
        t.cold <- rest;
        update_overload t;
        Some j
      | [] ->
        if t.draining then None
        else begin
          Condition.wait t.cv t.mu;
          wait ()
        end
    in
    let picked = wait () in
    (match picked with
    | Some j when j.jb_state = `Queued -> j.jb_state <- `Running
    | _ -> ());
    Mutex.unlock t.mu;
    match picked with
    | None -> ()
    | Some j ->
      if j.jb_state = `Running then run_job t j;
      next ()
  in
  next ();
  locked t (fun () -> t.exec_done <- true)

(* --- Request handling -------------------------------------------------- *)

let proto_error msg = Crash.make Crash.Protocol_error msg

let submit t conn ~case ~qos =
  let digest = Protocol.digest ~case ~qos in
  (* a memo hit's job id and stored reports: its verdict follows the
     ack, rendered outside the lock *)
  let hit = ref None in
  let reply =
    locked t (fun () ->
        if t.draining then shed_reply t ~case ~digest ~reason:"draining"
        else if Registry.find case = None then
          Protocol.error_frame (proto_error (Printf.sprintf "unknown case %S" case))
        else begin
          let attachable =
            match Hashtbl.find_opt t.live digest with
            | Some j
              when j.jb_state <> `Done
                   && j.jb_state <> `Cancelled
                   && not (Atomic.get j.jb_cancel) ->
              Some j
            | _ -> None
          in
          match attachable with
          | Some j ->
            (* In-flight dedup: N clients asking for one digest share
               one exploration and all get the same verdict frame. *)
            j.jb_waiters <- conn :: j.jb_waiters;
            Protocol.ack ~job:j.jb_id ~digest ~position:0 ~cached:false
          | None ->
            let memo = Hashtbl.find_opt t.verdicts digest in
            update_overload t;
            if Option.is_some memo then begin
              (* a memo hit is never queued, shed, rate-limited or
                 demoted: it costs no exploration *)
              t.memo_hits <- t.memo_hits + 1;
              let id = t.next_id in
              t.next_id <- id + 1;
              hit := Option.map (fun reports -> (id, reports)) memo;
              Protocol.ack ~job:id ~digest ~position:0 ~cached:true
            end
            else if not (admit_rate t conn) then
              (* per-client token bucket: one flooding client is
                 answered with structured sheds before it can saturate
                 the queue everyone shares.  Only fresh work spends
                 tokens — attaching and memo hits cost no exploration *)
              shed_reply t ~case ~digest ~reason:"rate-limited"
            else if
              t.overload = Protocol.Overloaded && qos = Protocol.Bronze
            then
              (* graceful degradation, cheapest traffic first: under
                 pressure bronze is shed outright (it has no lower tier
                 to demote to) while gold/silver stay admitted below *)
              shed_reply t ~case ~digest ~reason:"overload"
            else if List.length t.cold >= t.cfg.sc_queue_bound then
              shed_reply t ~case ~digest ~reason:"queue-full"
            else begin
              let run_qos =
                if t.overload = Protocol.Overloaded then
                  Some (Protocol.qos_demote qos)
                else None
              in
              t.memo_misses <- t.memo_misses + 1;
              let job = mkjob t ~case ~qos ~run_qos ~keep:false () in
              job.jb_waiters <- [ conn ];
              Hashtbl.replace t.live digest job;
              (* The ledger entry makes the accepted job durable
                 before any exploration starts: a daemon killed right
                 here resumes it. *)
              Journal.append t.jrnl
                (Journal.Spec_begin { spec = ledger_spec digest; params = digest });
              Journal.flush t.jrnl;
              t.cold <- t.cold @ [ job ];
              update_overload t;
              Condition.broadcast t.cv;
              Protocol.ack ~job:job.jb_id ~digest
                ~position:(List.length t.cold) ~cached:false
            end
        end)
  in
  send conn reply;
  Option.iter
    (fun (job, reports) ->
      send conn
        (Protocol.verdict ~job ~case ~digest ~memo:true ~fresh_units:0
           ~cancelled:false ~reports ()))
    !hit

(* The live health gauges, computed under [mu].  Shared by the health
   frame, the ready frame and the status endpoint's extra fields. *)
let health_snapshot t =
  locked t (fun () ->
      let inflight =
        Hashtbl.fold
          (fun _ j n -> if j.jb_state = `Running then n + 1 else n)
          t.live 0
      in
      let served = t.memo_hits + t.memo_misses in
      ( Protocol.health_fields ~uptime_s:(now () -. t.started)
          ~queue_depth:(List.length t.cold) ~inflight
          ?memo_hit_rate:
            (if served = 0 then None
             else Some (float_of_int t.memo_hits /. float_of_int served))
          ~journal_lag_bytes:(Journal.pending_bytes t.jrnl)
          ?journal_fault:(Journal.io_failure t.jrnl)
          ~shed_total:t.shed_total ~overload_state:t.overload (),
        t.draining,
        t.overload ))

let status_frame t =
  (* Flush so [Journal.read] (which scans the files, not the handle's
     index) sees everything appended so far, then render through the
     same code path as [fcsl jobs status --json]. *)
  Journal.flush t.jrnl;
  let records, _ = Journal.read t.cfg.sc_journal_dir in
  let jobs = Journal.jobs_of_records records in
  let health, draining, _ = health_snapshot t in
  let extra =
    locked t (fun () ->
        [
          ("type", Json.Str "status");
          ("queue", Json.Int (List.length t.cold));
          ("draining", Json.Bool draining);
        ]
        @ health)
  in
  Protocol.jobs_to_json ~extra jobs

let health_frame t =
  let fields, _, _ = health_snapshot t in
  Json.to_string (Json.Obj (("type", Json.Str "health") :: fields))

let ready_frame t =
  let _, draining, overload = health_snapshot t in
  Protocol.ready ~ready:(not draining) ~draining ~overload_state:overload

let withdraw_conn_from t conn job =
  job.jb_waiters <- List.filter (fun c -> c != conn) job.jb_waiters;
  if job.jb_waiters = [] && not job.jb_keep then begin
    match job.jb_state with
    | `Queued ->
      (* Never started: drop it from the queue and write the terminal
         ledger record now, so a restart doesn't resurrect a job
         nobody wants. *)
      job.jb_state <- `Cancelled;
      t.cold <- List.filter (fun j -> j != job) t.cold;
      update_overload t;
      (match Hashtbl.find_opt t.live job.jb_digest with
      | Some j when j == job -> Hashtbl.remove t.live job.jb_digest
      | _ -> ());
      ledger_done t job ~tier:"service-cancelled" ~cancelled:true
        ~elapsed_s:0. ~states:0
    | `Running ->
      (* The budget's cancel probe trips within one tick; the verdict
         is reported cancelled and never journaled. *)
      Atomic.set job.jb_cancel true
    | `Done | `Cancelled -> ()
  end

let cancel t conn ~id =
  locked t (fun () ->
      let found = ref false in
      Hashtbl.iter
        (fun _ job ->
          if job.jb_id = id then begin
            found := true;
            withdraw_conn_from t conn job
          end)
        t.live;
      if !found then
        Json.to_string
          (Json.Obj [ ("type", Json.Str "cancelled"); ("job", Json.Int id) ])
      else Protocol.error_frame (proto_error (Printf.sprintf "unknown job %d" id)))

let disconnect t conn =
  locked t (fun () ->
      conn.cn_alive <- false;
      t.conns <- List.filter (fun c -> c != conn) t.conns;
      Hashtbl.iter (fun _ job -> withdraw_conn_from t conn job) t.live);
  try Unix.close conn.cn_fd with _ -> ()

let handle_line t conn line =
  match Protocol.parse_request line with
  | Error crash -> send conn (Protocol.error_frame crash)
  | Ok Protocol.Ping -> send conn Protocol.pong
  | Ok Protocol.Status -> send conn (status_frame t)
  | Ok Protocol.Health -> send conn (health_frame t)
  | Ok Protocol.Ready -> send conn (ready_frame t)
  | Ok Protocol.Drain ->
    drain t;
    send conn Protocol.drained
  | Ok (Protocol.Cancel id) -> send conn (cancel t conn ~id)
  | Ok (Protocol.Submit { case; qos }) -> submit t conn ~case ~qos

(* A line cap keeps one hostile client from ballooning the daemon's
   memory: past it the frame is answered with a protocol error and the
   connection is dropped. *)
let max_line = 1 lsl 20

let conn_loop t conn =
  let chunk = Bytes.create 4096 in
  let pending = ref "" in
  let overlong = ref false in
  let rec go () =
    match Unix.read conn.cn_fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      pending := !pending ^ Bytes.sub_string chunk 0 n;
      let rec split () =
        match String.index_opt !pending '\n' with
        | Some i ->
          let line = String.sub !pending 0 i in
          pending := String.sub !pending (i + 1) (String.length !pending - i - 1);
          if String.trim line <> "" then handle_line t conn line;
          split ()
        | None -> ()
      in
      split ();
      if String.length !pending > max_line then begin
        send conn
          (Protocol.error_frame
             (proto_error "frame exceeds the 1 MiB line limit"));
        overlong := true
      end;
      if not !overlong then go ()
    | exception _ -> ()
  in
  (try go () with _ -> ());
  disconnect t conn

(* --- The accept loop --------------------------------------------------- *)

let install_signals t =
  (* The handler body runs at an allocation safepoint of whatever
     thread is interrupted: it must not take locks.  It flips an
     atomic the accept loop polls. *)
  let request _ = Atomic.set t.stop_req true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request) with _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle request) with _ -> ()

let run t =
  (* A write to a freshly-dead client must surface as EPIPE, not kill
     the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  if t.cfg.sc_signals then install_signals t;
  (try Unix.unlink t.cfg.sc_socket with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX t.cfg.sc_socket);
  Unix.listen listen_fd 64;
  let executor = Thread.create exec_loop t in
  let conn_threads = ref [] in
  let finished () = locked t (fun () -> t.exec_done) in
  while not (finished ()) do
    if Atomic.get t.stop_req then drain t;
    match Unix.select [ listen_fd ] [] [] 0.2 with
    | [ _ ], _, _ when not (finished ()) ->
      let fd, _ = Unix.accept listen_fd in
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0 with _ -> ());
      let conn =
        {
          cn_fd = fd;
          cn_mu = Mutex.create ();
          cn_alive = true;
          cn_tokens =
            (match t.cfg.sc_rate with
            | Some (_, burst) -> float_of_int burst
            | None -> 0.);
          cn_refill_t = now ();
        }
      in
      locked t (fun () -> t.conns <- conn :: t.conns);
      conn_threads := Thread.create (conn_loop t) conn :: !conn_threads
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Thread.join executor;
  (try Unix.close listen_fd with _ -> ());
  (try Unix.unlink t.cfg.sc_socket with _ -> ());
  (* Unblock the reader threads: shutting the sockets down makes their
     reads return 0/fail, and each thread runs its own disconnect. *)
  let conns = locked t (fun () -> t.conns) in
  List.iter
    (fun c -> try Unix.shutdown c.cn_fd Unix.SHUTDOWN_ALL with _ -> ())
    conns;
  List.iter (fun th -> try Thread.join th with _ -> ()) !conn_threads;
  List.iter (fun fd -> try Unix.close fd with _ -> ()) [ t.wake_r; t.wake_w ];
  Journal.close t.jrnl
