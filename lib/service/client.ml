(* The client side of the service protocol: a blocking line-framed
   connection used by [fcsl submit], the service tests, the bench
   harness and the chaos modes.  One request at a time per connection —
   the submit path reads frames until its terminal verdict (or shed, or
   error), invoking a callback on progress frames in between. *)

open Fcsl_core

type conn = {
  fd : Unix.file_descr;
  mutable pending : string;
  mutable closed : bool;
}

let connect ~socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  { fd; pending = ""; closed = false }

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with _ -> ()
  end

(* Abrupt teardown without the polite shutdown: the chaos harness's
   "killed client" — from the server's side indistinguishable from a
   SIGKILLed process holding the other end. *)
let abandon = close

(* Request writes ride [Wire.write_line]: EINTR and partial writes are
   retried until the whole line is out — a signal landing mid-submit
   must not tear the frame and desynchronize the stream. *)
let send c (req : Protocol.request) =
  Wire.write_line c.fd (Json.to_string (Protocol.request_to_json req))

let send_raw c line = Wire.write_line c.fd line

let read_frame ?(timeout_s = 60.) c : (Json.t, string) result =
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec next () =
    match String.index_opt c.pending '\n' with
    | Some i ->
      let line = String.sub c.pending 0 i in
      c.pending <-
        String.sub c.pending (i + 1) (String.length c.pending - i - 1);
      if String.trim line = "" then next ()
      else (
        match Json.parse line with
        | Ok v -> Ok v
        | Error e -> Error ("unparseable frame from server: " ^ e))
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Error "timeout waiting for a frame"
      else (
        match Unix.select [ c.fd ] [] [] (Float.min left 1.0) with
        | [], _, _ -> next ()
        | _ -> (
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> Error "server closed the connection"
          | n ->
            c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
            next ()
          | exception e -> Error (Printexc.to_string e)))
  in
  next ()

let frame_type v = Option.bind (Json.member "type" v) Json.to_str

let ping ?(timeout_s = 5.) c =
  match send c Protocol.Ping with
  | () -> (
    match read_frame ~timeout_s c with
    | Ok v -> frame_type v = Some "pong"
    | Error _ -> false)
  | exception _ -> false

type verdict = {
  v_job : int;
  v_case : string;
  v_status : int;
  v_memo : bool;
  v_fresh_units : int;
  v_cancelled : bool;
  v_frame : Json.t;  (* the whole verdict frame, for JSON output *)
}

type submit_error =
  | Shed of string  (* the structured overload answer, with its reason *)
  | Server_error of Crash.t  (* an error frame (protocol or internal) *)
  | Transport of string  (* timeouts, closed sockets, unparseable data *)

let pp_submit_error ppf = function
  | Shed reason -> Fmt.pf ppf "shed by the server: %s" reason
  | Server_error c -> Fmt.pf ppf "server error: %a" Crash.pp c
  | Transport msg -> Fmt.pf ppf "transport failure: %s" msg

let crash_of_frame v =
  match Json.member "crash" v with
  | Some crash -> (
    match Crash.of_json crash with
    | Ok c -> c
    | Error e ->
      Crash.make Crash.Protocol_error ("undecodable error frame: " ^ e))
  | None -> Crash.make Crash.Protocol_error "error frame without a crash"

(* Submit one case and block until its terminal frame.  The ack carries
   the job id; progress/verdict frames for *that id* are consumed (a
   frame for another id would mean protocol confusion and is a
   transport error).  [on_progress] sees the states counter. *)
let submit ?(qos = Protocol.Gold) ?(timeout_s = 600.) ?on_progress c ~case :
    (verdict, submit_error) result =
  match send c (Protocol.Submit { case; qos }) with
  | exception e -> Error (Transport (Printexc.to_string e))
  | () -> (
    let deadline = Unix.gettimeofday () +. timeout_s in
    let left () = Float.max 0.1 (deadline -. Unix.gettimeofday ()) in
    let int_field k v = Option.bind (Json.member k v) Json.to_int in
    let bool_field k v =
      Option.value (Option.bind (Json.member k v) Json.to_bool) ~default:false
    in
    let rec await job =
      match read_frame ~timeout_s:(left ()) c with
      | Error e -> Error (Transport e)
      | Ok v -> (
        match frame_type v with
        | Some "shed" ->
          Error
            (Shed
               (Option.value
                  (Option.bind (Json.member "reason" v) Json.to_str)
                  ~default:"unknown"))
        | Some "error" -> Error (Server_error (crash_of_frame v))
        | Some "ack" -> (
          match int_field "job" v with
          | Some id -> await (Some id)
          | None -> Error (Transport "ack frame without a job id"))
        | Some "progress" ->
          (match (on_progress, int_field "states" v) with
          | Some f, Some n -> f n
          | _ -> ());
          await job
        | Some "verdict" -> (
          match (job, int_field "job" v) with
          | Some expect, Some got when expect <> got ->
            Error (Transport "verdict for a different job id")
          | _ -> (
            match
              ( int_field "job" v,
                Option.bind (Json.member "case" v) Json.to_str,
                int_field "status" v )
            with
            | Some v_job, Some v_case, Some v_status ->
              Ok
                {
                  v_job;
                  v_case;
                  v_status;
                  v_memo = bool_field "memo" v;
                  v_fresh_units =
                    Option.value (int_field "fresh_units" v) ~default:0;
                  v_cancelled = bool_field "cancelled" v;
                  v_frame = v;
                }
            | _ -> Error (Transport "verdict frame missing fields")))
        | Some "draining" | Some "pong" | Some "status" | Some "cancelled" ->
          (* responses to other ops are impossible mid-submit on a
             well-behaved connection, but skipping them is harmless *)
          await job
        | _ -> Error (Transport "unrecognized frame type"))
    in
    await None)

let health ?(timeout_s = 10.) c : (Json.t, submit_error) result =
  match send c Protocol.Health with
  | exception e -> Error (Transport (Printexc.to_string e))
  | () -> (
    match read_frame ~timeout_s c with
    | Error e -> Error (Transport e)
    | Ok v -> (
      match frame_type v with
      | Some "health" -> Ok v
      | Some "error" -> Error (Server_error (crash_of_frame v))
      | _ -> Error (Transport "expected a health frame")))

let ready ?(timeout_s = 10.) c : (bool, submit_error) result =
  match send c Protocol.Ready with
  | exception e -> Error (Transport (Printexc.to_string e))
  | () -> (
    match read_frame ~timeout_s c with
    | Error e -> Error (Transport e)
    | Ok v -> (
      match frame_type v with
      | Some "ready" ->
        Ok
          (Option.value
             (Option.bind (Json.member "ready" v) Json.to_bool)
             ~default:false)
      | Some "error" -> Error (Server_error (crash_of_frame v))
      | _ -> Error (Transport "expected a ready frame")))

let status ?(timeout_s = 10.) c : (Json.t, submit_error) result =
  match send c Protocol.Status with
  | exception e -> Error (Transport (Printexc.to_string e))
  | () -> (
    match read_frame ~timeout_s c with
    | Error e -> Error (Transport e)
    | Ok v -> (
      match frame_type v with
      | Some "status" -> Ok v
      | Some "error" -> Error (Server_error (crash_of_frame v))
      | _ -> Error (Transport "expected a status frame")))

let drain ?(timeout_s = 10.) c : (unit, submit_error) result =
  match send c Protocol.Drain with
  | exception e -> Error (Transport (Printexc.to_string e))
  | () -> (
    match read_frame ~timeout_s c with
    | Error e -> Error (Transport e)
    | Ok v -> (
      match frame_type v with
      | Some "draining" -> Ok ()
      | _ -> Error (Transport "expected a draining frame")))

(* --- The retrying client ----------------------------------------------- *)

type retry_verdict = {
  rv_verdict : verdict;
  rv_attempts : int;  (* 1 = the first attempt succeeded *)
  rv_backoff_s : float;  (* total seconds slept between attempts *)
}

(* Resubmission is idempotent by construction: the submission is keyed
   on its params digest (case + QoS), so a retry that lands after the
   first attempt already completed server-side is answered from the
   journal memo — observable as [v_memo = true] on the returned
   verdict.  Each attempt opens a fresh connection (the old one is
   exactly what we no longer trust); Transport failures and sheds
   retry under jittered exponential backoff ([Pool.backoff_delay], the
   engine's one backoff schedule), structured server errors are
   deterministic and fail fast.  Two deadlines bound the loop: each
   attempt gets at most [attempt_timeout_s], the whole affair at most
   [retry_budget_s]. *)
let submit_retry ?(qos = Protocol.Gold) ?(retries = 3) ?(retry_budget_s = 60.)
    ?(attempt_timeout_s = 600.) ?(backoff_base_s = 0.05) ?(backoff_seed = 0)
    ?on_progress ~socket ~case () : (retry_verdict, submit_error) result =
  let deadline = Unix.gettimeofday () +. retry_budget_s in
  let attempt () =
    match connect ~socket with
    | exception e -> Error (Transport (Printexc.to_string e))
    | c ->
      Fun.protect
        ~finally:(fun () -> close c)
        (fun () ->
          let timeout_s =
            Float.min attempt_timeout_s
              (Float.max 0.1 (deadline -. Unix.gettimeofday ()))
          in
          submit ~qos ~timeout_s ?on_progress c ~case)
  in
  let rec go k slept =
    match attempt () with
    | Ok v -> Ok { rv_verdict = v; rv_attempts = k; rv_backoff_s = slept }
    | Error (Server_error _ as e) -> Error e
    | Error ((Shed _ | Transport _) as e) ->
      if k > retries then Error e
      else
        let d = Pool.backoff_delay ~seed:backoff_seed ~base:backoff_base_s 0 (k + 1) in
        if Unix.gettimeofday () +. d >= deadline then Error e
        else begin
          Unix.sleepf d;
          go (k + 1) (slept +. d)
        end
  in
  go 1 0.

(* Poll until the daemon answers a ping — the "wait for the socket to
   exist" helper every embedder needs.  The poll step starts at 1 ms
   and doubles up to 50 ms: a daemon that comes up in a few
   milliseconds is seen then, not a whole 50 ms step later. *)
let wait_ready ?(timeout_s = 10.) ~socket () =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go step =
    if Unix.gettimeofday () > deadline then false
    else
      let up =
        match connect ~socket with
        | c ->
          let ok = ping c in
          close c;
          ok
        | exception _ -> false
      in
      up
      || begin
           Thread.delay step;
           go (Float.min 0.05 (step *. 2.))
         end
  in
  go 0.001
