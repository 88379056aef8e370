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

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json c =
  Printf.sprintf "{\"kind\": \"%s\", \"msg\": \"%s\", \"schedule\": [%s]}"
    (kind_name c.kind) (json_escape c.msg)
    (String.concat ", "
       (List.map (fun s -> "\"" ^ json_escape s ^ "\"") c.trace))

(* A minimal recursive-descent parser for the object shape [to_json]
   emits — {"kind": str, "msg": str, "schedule": [str, ...]} — written
   by hand because the engine deliberately carries no JSON dependency.
   It accepts arbitrary key order and unknown keys (skipped), so
   journals written by a newer engine still load. *)

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

exception Parse of string

let of_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let next () =
    if !pos >= len then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while !pos < len && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if next () <> c then fail (Printf.sprintf "expected %C" c)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
        (match next () with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          (* bind each digit: operand evaluation order is unspecified *)
          let d1 = hex (next ()) in
          let d2 = hex (next ()) in
          let d3 = hex (next ()) in
          let d4 = hex (next ()) in
          let cp = ((d1 * 16 + d2) * 16 + d3) * 16 + d4 in
          (* UTF-8 encode; [json_escape] only emits \u00xx control
             codes, which land in the single-byte branch *)
          if cp < 0x80 then Buffer.add_char b (Char.chr cp)
          else if cp < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
          end
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        go ())
      | c when Char.code c < 0x20 -> fail "unescaped control character"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_string_array () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        skip_ws ();
        let v = parse_string () in
        skip_ws ();
        match next () with
        | ',' -> go (v :: acc)
        | ']' -> List.rev (v :: acc)
        | _ -> fail "expected ',' or ']'"
      in
      go []
  in
  (* skip any JSON value (unknown keys from future engine versions) *)
  let rec skip_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> ignore (parse_string ())
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec go () =
          skip_value ();
          skip_ws ();
          match next () with ',' -> go () | ']' -> () | _ -> fail "bad array"
        in
        go ()
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec go () =
          skip_ws ();
          ignore (parse_string ());
          expect ':';
          skip_value ();
          skip_ws ();
          match next () with ',' -> go () | '}' -> () | _ -> fail "bad object"
        in
        go ()
    | Some _ ->
      (* number / true / false / null: consume the token *)
      let start = !pos in
      while
        !pos < len
        && match s.[!pos] with
           | ',' | ']' | '}' | ' ' | '\t' | '\n' | '\r' -> false
           | _ -> true
      do
        incr pos
      done;
      if !pos = start then fail "expected a value"
    | None -> fail "expected a value"
  in
  match
    let kind = ref None and msg = ref None and sched = ref [] in
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        expect ':';
        skip_ws ();
        (match key with
        | "kind" -> kind := Some (parse_string ())
        | "msg" -> msg := Some (parse_string ())
        | "schedule" -> sched := parse_string_array ()
        | _ -> skip_value ());
        skip_ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> fail "expected ',' or '}'"
      in
      members ()
    end;
    skip_ws ();
    if !pos <> len then fail "trailing garbage after object";
    match (!kind, !msg) with
    | None, _ -> fail "missing \"kind\""
    | _, None -> fail "missing \"msg\""
    | Some k, Some m -> (
      match kind_of_name k with
      | None -> fail (Printf.sprintf "unknown crash kind %S" k)
      | Some kind -> make ~trace:!sched kind m)
  with
  | c -> Ok c
  | exception Parse e -> Error e
