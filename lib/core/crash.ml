(* Structured failure values: what went wrong (a kind from the closed
   taxonomy), the human diagnosis, and the schedule that discovered it.
   Replaces the stringly-typed crash messages the engine grew up with,
   so the CLI's exit codes, the chaos harness's assertions and the
   report JSON all consume the same shape. *)

type kind =
  | Unsafe_action
  | Ghost_algebra
  | Postcondition
  | Budget_exhausted
  | Injected_fault
  | Internal_error
  | Deadlock
  | Protocol_error
  | Io_fault

let kind_name = function
  | Unsafe_action -> "unsafe-action"
  | Ghost_algebra -> "ghost-algebra"
  | Postcondition -> "postcondition"
  | Budget_exhausted -> "budget-exhausted"
  | Injected_fault -> "injected-fault"
  | Internal_error -> "internal-error"
  | Deadlock -> "deadlock"
  | Protocol_error -> "protocol-error"
  | Io_fault -> "io-fault"

let pp_kind ppf k = Fmt.string ppf (kind_name k)

exception Injected of string

type t = {
  kind : kind;
  msg : string;
  trace : string list; (* discovering schedule, oldest step first *)
}

let make ?(trace = []) kind msg = { kind; msg; trace }

let of_exn = function
  | Injected msg -> make Injected_fault ("injected fault: " ^ msg)
  | e -> make Internal_error (Printexc.to_string e)

let kind c = c.kind
let message c = c.msg
let trace c = c.trace
let with_trace trace c = { c with trace }

(* Traces are first-discovery artifacts: memoized replay preserves the
   kind and message but may re-emit a crash with the schedule of its
   first discovery, so equality ignores them (exactly as the engine's
   differential tests always stripped "[schedule: ...]" suffixes). *)
let equal c1 c2 = c1.kind = c2.kind && String.equal c1.msg c2.msg

let pp ppf c =
  Fmt.pf ppf "%s: %s" (kind_name c.kind) c.msg;
  if c.trace <> [] then
    Fmt.pf ppf " [schedule: %s]" (String.concat " ; " c.trace)

(* The JSON rendering the journal stores and the service's error and
   verdict frames carry.  [of_json] skips unknown keys, so crashes
   written by a newer engine still load. *)
let to_json c =
  Json.Obj
    [
      ("kind", Json.Str (kind_name c.kind));
      ("msg", Json.Str c.msg);
      ("schedule", Json.Arr (List.map (fun s -> Json.Str s) c.trace));
    ]

let kind_of_name = function
  | "unsafe-action" -> Some Unsafe_action
  | "ghost-algebra" -> Some Ghost_algebra
  | "postcondition" -> Some Postcondition
  | "budget-exhausted" -> Some Budget_exhausted
  | "injected-fault" -> Some Injected_fault
  | "internal-error" -> Some Internal_error
  | "deadlock" -> Some Deadlock
  | "protocol-error" -> Some Protocol_error
  | "io-fault" -> Some Io_fault
  | _ -> None

let of_json v =
  let str k = Option.bind (Json.member k v) Json.to_str in
  let schedule =
    match Json.member "schedule" v with
    | None -> Some []
    | Some s ->
      Option.bind (Json.to_list s) (fun xs ->
          let ss = List.filter_map Json.to_str xs in
          if List.compare_lengths ss xs = 0 then Some ss else None)
  in
  match (str "kind", str "msg", schedule) with
  | None, _, _ -> Error "missing or non-string \"kind\""
  | _, None, _ -> Error "missing or non-string \"msg\""
  | _, _, None -> Error "\"schedule\" is not an array of strings"
  | Some k, Some msg, Some trace -> (
    match kind_of_name k with
    | None -> Error (Printf.sprintf "unknown crash kind %S" k)
    | Some kind -> Ok (make ~trace kind msg))
