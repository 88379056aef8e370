(* A minimal JSON value type with a hand-rolled parser and printer.

   The engine deliberately carries no JSON dependency, and this is the
   only JSON code in it: crashes (as the journal stores them), wire
   frames, analyzer reports and bench artifacts all go through
   [to_string] and [parse].
   The parser reads arbitrary client frames, not just our own output.
   Scope is exactly what one-line values need: no streaming, no
   float-precision heroics beyond printing the shortest digits that
   round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- Printing ---------------------------------------------------------- *)

let escape s =
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

(* JSON has no spelling for NaN or the infinities: they print as
   [null].  A whole number below 1e15 keeps its ".0"; any other float
   prints as the shortest of 15, 16 or 17 significant digits that reads
   back to the same bits, so 0.08 prints as "0.08", not as
   "0.080000000000000002". *)
let float_lit f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec shortest digits =
      let s = Printf.sprintf "%.*g" digits f in
      let back = Int64.bits_of_float (float_of_string s) in
      if digits >= 17 || Int64.equal back (Int64.bits_of_float f) then s
      else shortest (digits + 1)
    in
    shortest 15

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_lit f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b "\": ";
        write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- Parsing ----------------------------------------------------------- *)

exception Parse of string

let parse s =
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
    while
      !pos < len
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
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
  let parse_literal lit v =
    let n = String.length lit in
    if !pos + n <= len && String.sub s !pos n = lit then begin
      pos := !pos + n;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < len
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> parse_literal "true" (Bool true)
    | Some 'f' -> parse_literal "false" (Bool false)
    | Some 'n' -> parse_literal "null" Null
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec go acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> go (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        go []
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec go acc =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> go ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        go []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "expected a value"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse e -> Error e

(* --- Accessors --------------------------------------------------------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None
