(* Failure classification.  An operation is one row verification or
   one submission; it fails on a verdict that differs from the expected
   table, a shed, an error frame, a transport error or a timeout.  Only
   a wrong verdict makes a run incorrect: the others are service
   failures, counted but not evidence of a wrong answer. *)

module Client = Fcsl_service.Client

type failure =
  | Wrong_verdict of string
  | Shed of string
  | Error_frame of string
  | Transport of string
  | Timeout

let kind = function
  | Wrong_verdict _ -> "wrong-verdict"
  | Shed _ -> "shed"
  | Error_frame _ -> "error-frame"
  | Transport _ -> "transport"
  | Timeout -> "timeout"

let describe = function
  | Wrong_verdict m -> "wrong verdict: " ^ m
  | Shed r -> "shed: " ^ r
  | Error_frame m -> "error frame: " ^ m
  | Transport m -> "transport: " ^ m
  | Timeout -> "timeout"

(* [Client.read_frame] reports an expired deadline as a transport
   message; it is a timeout all the same. *)
let is_timeout msg =
  String.length msg >= 7 && String.sub msg 0 7 = "timeout"

let of_submit_error = function
  | Client.Shed reason -> Shed reason
  | Client.Server_error c -> Error_frame (Fcsl_core.Crash.message c)
  | Client.Transport m when is_timeout m -> Timeout
  | Client.Transport m -> Transport m

let of_check = function Ok () -> Ok () | Error m -> Error (Wrong_verdict m)

(* A verdict frame answers the submission only if it names the case
   that was submitted, was not cancelled, and carries a status the
   expected table allows for that QoS tier. *)
let of_verdict ~case ~qos ~got_case ~cancelled ~status =
  if got_case <> case then
    Error (Wrong_verdict (Printf.sprintf "asked for %s, got %s" case got_case))
  else if cancelled then
    Error (Wrong_verdict (case ^ ": verdict cancelled with no client gone"))
  else of_check (Expected.check_service ~case ~qos status)

let of_row ~case ~exit_code = of_check (Expected.check_exit ~case exit_code)

let is_wrong_verdict = function Wrong_verdict _ -> true | _ -> false
