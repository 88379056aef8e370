(* Effect envelopes over labels: which concurroid labels a program (or
   spec, or action) may read, write, or CAS.  The analogue, one level up,
   of {!Assrt}'s per-component assertion footprints — where an assertion
   footprint says which components a *predicate* reads, an effect
   envelope says which labels a *program* touches.

   Envelopes form a join-semilattice with [Top] ("may touch anything"):
   the element every opaque OCaml closure in the DSL maps to.  Anything
   statically visible (action leaves, par/hide spines, declared
   annotations) stays below [Top].  The static analyzer, the lints and
   the independence report read envelopes; exploration itself always
   interferes at every world label (see DESIGN.md, Section 10). *)

type access = Read | Write | Cas

let pp_access ppf = function
  | Read -> Fmt.string ppf "r"
  | Write -> Fmt.string ppf "w"
  | Cas -> Fmt.string ppf "c"

(* Per-label access summary as three flags, kept abstract behind
   constructors so the representation can grow (e.g. heap regions). *)
type accs = { a_read : bool; a_write : bool; a_cas : bool }

let accs_of_list l =
  {
    a_read = List.mem Read l;
    a_write = List.mem Write l;
    a_cas = List.mem Cas l;
  }

let accs_join a b =
  {
    a_read = a.a_read || b.a_read;
    a_write = a.a_write || b.a_write;
    a_cas = a.a_cas || b.a_cas;
  }

let accs_leq a b =
  ((not a.a_read) || b.a_read)
  && ((not a.a_write) || b.a_write)
  && ((not a.a_cas) || b.a_cas)

let accs_list a =
  (if a.a_read then [ Read ] else [])
  @ (if a.a_write then [ Write ] else [])
  @ if a.a_cas then [ Cas ] else []

type t = Top | Fp of accs Label.Map.t

let top = Top
let bot = Fp Label.Map.empty
let is_top = function Top -> true | Fp _ -> false

let accs_empty a = not (a.a_read || a.a_write || a.a_cas)

(* Canonical form: no all-false bindings.  An empty access list would
   otherwise create a phantom label — present in [labels]/[mem] yet
   granting nothing — and make structurally different builds of the same
   envelope compare unequal. *)
let of_list bindings =
  Fp
    (List.fold_left
       (fun m (l, accesses) ->
         let prev =
           Option.value (Label.Map.find_opt l m)
             ~default:{ a_read = false; a_write = false; a_cas = false }
         in
         let a = accs_join prev (accs_of_list accesses) in
         if accs_empty a then m else Label.Map.add l a m)
       Label.Map.empty bindings)

let reads l = of_list [ (l, [ Read ]) ]
let writes l = of_list [ (l, [ Read; Write ]) ]
let cases l = of_list [ (l, [ Read; Cas ]) ]
let touches l = of_list [ (l, [ Read; Write; Cas ]) ]

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Fp ma, Fp mb ->
    Fp
      (Label.Map.union (fun _ x y -> Some (accs_join x y)) ma mb)

let join_all = List.fold_left join bot

(* [labels fp] is [None] for [Top] ("all labels") and the touched label
   set otherwise. *)
let labels = function
  | Top -> None
  | Fp m -> Some (Label.Set.of_list (Label.Map.keys m))

let mem fp l =
  match fp with Top -> true | Fp m -> Label.Map.mem l m

(* [remove fp l]: the envelope with label [l] scoped away — what remains
   visible outside a [hide] that installs [l]. *)
let remove fp l =
  match fp with Top -> Top | Fp m -> Fp (Label.Map.remove l m)

(* [commutes a b]: the two envelopes cannot interfere — at every label
   both touch, both are read-only.  The independence analysis's
   syntactic rule: two steps whose envelopes commute reach the
   same configuration in either order (reads see identical state;
   writes/CASes land on labels the other never reads).  [Top] commutes
   only with the empty envelope. *)
let accs_ro a = not (a.a_write || a.a_cas)

let commutes a b =
  match (a, b) with
  | Top, Top -> false
  | Top, Fp m | Fp m, Top -> Label.Map.is_empty m
  | Fp ma, Fp mb ->
    Label.Map.for_all
      (fun l aa ->
        match Label.Map.find_opt l mb with
        | None -> true
        | Some ab -> accs_ro aa && accs_ro ab)
      ma

(* [subsumes outer inner]: every access [inner] may perform, [outer]
   declares too. *)
let subsumes outer inner =
  match (outer, inner) with
  | Top, _ -> true
  | Fp _, Top -> false
  | Fp mo, Fp mi ->
    Label.Map.for_all
      (fun l ai ->
        match Label.Map.find_opt l mo with
        | Some ao -> accs_leq ai ao
        | None -> false)
      mi

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Fp ma, Fp mb -> Label.Map.equal (fun x y -> accs_leq x y && accs_leq y x) ma mb
  | (Top | Fp _), _ -> false

let accesses fp l =
  match fp with
  | Top -> [ Read; Write; Cas ]
  | Fp m -> (
    match Label.Map.find_opt l m with
    | Some a -> accs_list a
    | None -> [])

let pp ppf = function
  | Top -> Fmt.string ppf "⊤"
  | Fp m ->
    if Label.Map.is_empty m then Fmt.string ppf "∅"
    else
      Fmt.pf ppf "{%a}"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (l, a) ->
              Fmt.pf ppf "%a:%a" Label.pp l
                (list ~sep:nop pp_access) (accs_list a)))
        (Label.Map.bindings m)
