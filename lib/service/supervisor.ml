(* The watchdog parent behind [fcsl serve --supervise]: spawn the
   daemon as a child process, wait on it, and classify every way it can
   die.  A clean exit (the daemon drained) ends supervision with the
   child's code; everything else — a crash, a kill -9, the OOM killer —
   is a failure the supervisor answers by restarting the child with
   resume semantics, under a jittered exponential-backoff restart
   budget.  Too many failures inside the sliding window and it gives up
   with a stable exit code, so an outer orchestrator can tell "the
   daemon is crash-looping" from "the daemon drained".

   The supervisor itself holds no daemon state: everything a restart
   needs is in the journal, which is exactly the crash-safety story the
   daemon already tells ([--resume] re-enqueues the in-flight ledger).
   Supervision just automates the restart. *)

open Fcsl_core

(* 0..3 are the verdict codes ([Verify.exit_ok] .. [exit_internal]);
   4 is "the supervisor gave up": the restart budget was exhausted;
   5 is "stopped on request while the daemon was down": a SIGTERM or
   SIGINT came during a restart backoff, or the child it was forwarded
   to then died non-zero. *)
let exit_gave_up = 4
let exit_stopped = 5

type config = {
  sv_restart_limit : int;
  sv_window_s : float;
  sv_backoff_base_s : float;
  sv_backoff_seed : int;
  sv_pidfile : string option;
  sv_log : string -> unit;
}

let config ?(restart_limit = 5) ?(window_s = 60.) ?(backoff_base_s = 0.25)
    ?(backoff_seed = 0) ?pidfile ?(log = ignore) () =
  {
    sv_restart_limit = max 1 restart_limit;
    sv_window_s = window_s;
    sv_backoff_base_s = backoff_base_s;
    sv_backoff_seed = backoff_seed;
    sv_pidfile = pidfile;
    sv_log = log;
  }

let write_pidfile cfg pid =
  match cfg.sv_pidfile with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      Printf.fprintf oc "%d\n" pid;
      close_out oc
    with Sys_error _ -> ())

let show_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* [spawn ~restart] starts one daemon child and returns its pid;
   [restart] is false only for the first child (later children must run
   with resume semantics — their predecessor died with work possibly in
   flight).  The caller owns the fork, so this module never forks under
   a process that already spawned domains. *)
let run cfg ~(spawn : restart:bool -> int) : int =
  (* A terminate request is recorded, and forwarded to the current
     child so it drains; the supervisor then sees a clean exit and
     follows it down.  Once a request is recorded nothing is spawned
     again, so a request that lands while no child is alive (a restart
     backoff) ends supervision instead of being lost. *)
  let child = ref None in
  let stop = Atomic.make false in
  let forward () =
    match !child with
    | Some pid -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    | None -> ()
  in
  let request _ =
    Atomic.set stop true;
    forward ()
  in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request)
   with Sys_error _ | Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request)
   with Sys_error _ | Invalid_argument _ -> ());
  let stopped what =
    cfg.sv_log
      (Printf.sprintf "supervisor: stop requested %s; not restarting" what);
    exit_stopped
  in
  (* [Unix.sleepf] sleeps out its whole delay around a signal handler,
     so the backoff sleeps in short slices and wakes on a request. *)
  let rec pause until =
    let left = until -. Unix.gettimeofday () in
    if left > 0. && not (Atomic.get stop) then begin
      Unix.sleepf (Float.min left 0.05);
      pause until
    end
  in
  let rec loop ~restart ~failures =
    let pid = spawn ~restart in
    child := Some pid;
    (* a request that came while [spawn] ran found no child to forward
       to; the server's drain handler makes a second SIGTERM harmless *)
    if Atomic.get stop then forward ();
    write_pidfile cfg pid;
    cfg.sv_log
      (Printf.sprintf "supervisor: child %d %s" pid
         (if restart then "restarted (resume)" else "started"));
    let rec wait () =
      match Unix.waitpid [] pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    child := None;
    match status with
    | Unix.WEXITED 0 ->
      cfg.sv_log "supervisor: child drained cleanly";
      0
    | status when Atomic.get stop ->
      stopped (Printf.sprintf "and child %s" (show_status status))
    | status ->
      let tnow = Unix.gettimeofday () in
      let failures =
        tnow
        :: List.filter (fun f -> tnow -. f <= cfg.sv_window_s) failures
      in
      if List.length failures >= cfg.sv_restart_limit then begin
        cfg.sv_log
          (Printf.sprintf
             "supervisor: child %s; %d failures within %.0fs — giving up"
             (show_status status) (List.length failures) cfg.sv_window_s);
        exit_gave_up
      end
      else begin
        (* jittered exponential backoff in the number of failures still
           inside the window (the engine's one backoff schedule; [k] is
           2-based, so the first restart waits ~base seconds).  A child
           that stayed up past the window ages its predecessors'
           failures out and restarts fast again. *)
        let delay =
          Pool.backoff_delay ~seed:cfg.sv_backoff_seed
            ~base:cfg.sv_backoff_base_s 0
            (List.length failures + 1)
        in
        cfg.sv_log
          (Printf.sprintf "supervisor: child %s; restarting in %.2fs"
             (show_status status) delay);
        pause (Unix.gettimeofday () +. delay);
        if Atomic.get stop then stopped "during the restart backoff"
        else loop ~restart:true ~failures
      end
  in
  loop ~restart:false ~failures:[]
