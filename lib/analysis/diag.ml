(* Structured diagnostics shared by every analyzer pass: a finding names
   the rule that fired, where, what went wrong, and the supporting
   detail (both access paths of a race, the violated law's witness) as
   separate lines, so the CLI, the tests and CI all consume the same
   shape. *)

type severity = Error | Warning | Info

let pp_severity ppf = function
  | Error -> Fmt.string ppf "error"
  | Warning -> Fmt.string ppf "warning"
  | Info -> Fmt.string ppf "info"

type finding = {
  f_rule : string; (* e.g. "par-race", "concurroid-law", "unstable-assertion" *)
  f_severity : severity;
  f_loc : string; (* where: a proc, a case name, a concurroid *)
  f_msg : string; (* the one-line diagnosis *)
  f_detail : string list; (* supporting lines: access paths, witnesses *)
}

let make ?(detail = []) ~rule ~severity ~loc msg =
  { f_rule = rule; f_severity = severity; f_loc = loc; f_msg = msg;
    f_detail = detail }

let error ?detail ~rule ~loc msg = make ?detail ~rule ~severity:Error ~loc msg
let warning ?detail ~rule ~loc msg =
  make ?detail ~rule ~severity:Warning ~loc msg
let info ?detail ~rule ~loc msg = make ?detail ~rule ~severity:Info ~loc msg

let errors fs = List.filter (fun f -> f.f_severity = Error) fs
let has_errors fs = errors fs <> []

let pp ppf f =
  Fmt.pf ppf "@[<v2>%a[%s] %s: %s%a@]" pp_severity f.f_severity f.f_rule
    f.f_loc f.f_msg
    Fmt.(list ~sep:nop (fun ppf d -> Fmt.pf ppf "@ - %s" d))
    f.f_detail

let pp_list ppf = function
  | [] -> Fmt.string ppf "no findings"
  | fs -> Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp) fs

(* JSON rendering, for [fcsl analyze --json] and the CI baseline diff.
   The shape is part of the tool's contract: stable keys, rule ids
   stable across releases, cases and findings in analyzer order (which
   is deterministic), no timestamps — so [diff] against a committed
   baseline is meaningful. *)

module Json = Fcsl_core.Json

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let finding_to_json f =
  Json.Obj
    [
      ("rule", Json.Str f.f_rule);
      ("severity", Json.Str (severity_string f.f_severity));
      ("loc", Json.Str f.f_loc);
      ("msg", Json.Str f.f_msg);
      ("detail", Json.Arr (List.map (fun d -> Json.Str d) f.f_detail));
    ]

(* One object per analyzed unit (case study, file, injected variant):
   {"schema_version": 2, "cases": [{"case": NAME, "findings": [...]},
   ...], "deadlock": ...}.  The [cases] array is byte-identical to the
   schema-1 payload, so baseline diff logic scoped to the untouched
   sections keeps passing; [deadlock] (when supplied — see
   {!Deadlock.verdict_to_json}) carries the lock-order verdicts.
   [schema_version] bumps whenever a consumer could need to dispatch:
   1 = the bare {"cases"} object, 2 = this shape. *)
let schema_version = 2

let results_to_json ?deadlock (results : (string * finding list) list) =
  let case (name, fs) =
    Json.Obj
      [
        ("case", Json.Str name);
        ("findings", Json.Arr (List.map finding_to_json fs));
      ]
  in
  Json.Obj
    (("schema_version", Json.Int schema_version)
    :: ("cases", Json.Arr (List.map case results))
    :: Option.fold ~none:[] ~some:(fun dl -> [ ("deadlock", dl) ]) deadlock)
