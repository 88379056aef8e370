(** The one JSON value type, printer and parser in the tree.  Crashes
    ({!Crash.to_json}, as the journal stores them), the service's wire
    frames, the analyzer reports and the bench artifacts all build a
    [t] and print it with {!to_string}.  Hand-rolled because the engine
    carries no JSON library dependency.

    Scope: one-line values.  Integers that fit [int] parse as {!Int};
    other numbers as {!Float}.  The printer escapes the double quote, the
    backslash, newline and the other control bytes (as [\u00XX]) and
    passes every other byte through, so UTF-8 text stays readable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no pretty-printing). *)

val parse : string -> (t, string) result
(** Strict parse of a complete value: trailing garbage, bad escapes and
    unescaped control characters are [Error]s. *)

val member : string -> t -> t option
(** Object field lookup; [None] on a non-object. *)

val to_str : t -> string option
val to_int : t -> int option
val to_bool : t -> bool option
val to_float : t -> float option
(** Accepts {!Int} too (a whole-number latency is still a float). *)

val to_list : t -> t list option
