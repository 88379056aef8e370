(* The FCSL program DSL (paper, Figure 3 and Section 5.1): a monadic,
   deeply-embedded language of concurrent programs.  Typed returns come
   for free from the GADT; effects are atomic actions; [par] spawns two
   child threads; [ffix] is general recursion; [hide] installs a
   concurroid in a scoped manner over a chunk of private heap
   (Section 3.5).

   In the Coq development programs denote sets of action trees; here the
   same terms are given both an operational semantics with full
   interleaving (module {!Sched}) and a denotational unfolding into
   finite approximation trees (module {!Tree}). *)

open Fcsl_heap
module Aux = Fcsl_pcm.Aux

(* Hide specification (the ψ, Φ annotations of Section 3.5): which Priv
   label donates heap, the decoration selecting the donated subheap, the
   concurroid to install, and the initial [self] auxiliary value. *)
type hide_spec = {
  hs_priv : Label.t;
  hs_conc : Concurroid.t;
  hs_decor : Heap.t -> Heap.t;
  hs_init : Aux.t;
  hs_jaux : Aux.t; (* initial joint auxiliary state of the installed label *)
}

(* The subjective fork split of the Par rule: given the forking thread's
   contribution, produce (reserve, left child's, right child's) with the
   same join.  [None] when the requested split is not available. *)
type split = Contrib.t -> (Contrib.t * Contrib.t * Contrib.t) option

type _ t =
  | Ret : 'a -> 'a t
  | Bind : 'b t * ('b -> 'a t) -> 'a t
  | Act : 'a Action.t -> 'a t
  | Par : 'b t * 'c t -> ('b * 'c) t
  | ParSplit : split * 'b t * 'c t -> ('b * 'c) t
  | Ffix : (('i -> 'o t) -> 'i -> 'o t) * 'i -> 'o t
  | Hide : hide_spec * 'a t -> 'a t
  | Annot : Footprint.t * 'a t -> 'a t
      (* A declared effect envelope for the subterm — the static
         analyzer's escape hatch for opaque closures (Bind continuations,
         Ffix bodies).  Semantically transparent, and taken on trust:
         exploration never reads it. *)

(* Smart constructors; [let*] gives the monadic notation of Figure 3. *)

let ret v = Ret v
let bind p k = Bind (p, k)
let ( let* ) = bind
let seq p q = Bind (p, fun _ -> q)
let act a = Act a
let par p q = Par (p, q)
let par_split split p q = ParSplit (split, p, q)

(* A common split: move the named private-heap cells of [pv] to the
   children, keeping the rest (and all other labels) in reserve. *)
let split_cells ~pv ~to_left ~to_right : split =
 fun mine ->
  match Aux.as_heap (Contrib.get pv mine) with
  | None -> None
  | Some h ->
    let take cells =
      List.fold_left
        (fun acc p ->
          Option.bind acc (fun (taken, rest) ->
              match Heap.find p rest with
              | Some v -> Some (Heap.add p v taken, Heap.free p rest)
              | None -> None))
        (Some (Heap.empty, h))
        cells
    in
    Option.bind (take to_left) (fun (hl, rest) ->
        Option.bind
          (List.fold_left
             (fun acc p ->
               Option.bind acc (fun (taken, rest) ->
                   match Heap.find p rest with
                   | Some v -> Some (Heap.add p v taken, Heap.free p rest)
                   | None -> None))
             (Some (Heap.empty, rest))
             to_right)
          (fun (hr, rest) ->
            Some
              ( Contrib.set pv (Aux.heap rest) mine,
                Contrib.set pv (Aux.heap hl) Contrib.empty,
                Contrib.set pv (Aux.heap hr) Contrib.empty )))

(* [ffix f] ties the recursive knot: [f] receives the recursive
   procedure itself, as in [Program Definition span := ffix (fun loop x
   => ...)] of Figure 3. *)
let ffix f x = Ffix (f, x)
let hide spec body = Hide (spec, body)
let annot fp p = Annot (fp, p)

let cond b pt pf = if b then pt else pf

(* Unfold one layer of recursion. *)
let unfold_ffix : type i o. ((i -> o t) -> i -> o t) -> i -> o t =
 fun f x -> f (fun y -> Ffix (f, y)) x

(* Static size of the term (for reporting); recursion counts as one. *)
let rec size : type a. a t -> int = function
  | Ret _ -> 1
  | Bind (p, _) -> 1 + size p
  | Act _ -> 1
  | Par (p, q) -> 1 + size p + size q
  | ParSplit (_, p, q) -> 1 + size p + size q
  | Ffix (_, _) -> 1
  | Hide (_, p) -> 1 + size p
  | Annot (_, p) -> size p

(* Effect inference over the visible spine.  Continuations of [Bind] and
   bodies of [Ffix] are opaque OCaml closures, so without an [Annot]
   they infer [Top]; an [Annot] overrides whatever its subterm would
   infer (the analyzer's annotation-narrowing lint checks it against
   whatever the spine shows).  [Hide] scopes away its installed label
   and touches the donating private label. *)
let rec footprint : type a. a t -> Footprint.t = function
  | Ret _ -> Footprint.bot
  | Act a -> Action.footprint a
  | Bind (p, _) -> Footprint.join (footprint p) Footprint.top
  | Par (p, q) -> Footprint.join (footprint p) (footprint q)
  | ParSplit (_, p, q) -> Footprint.join (footprint p) (footprint q)
  | Ffix (_, _) -> Footprint.top
  | Hide (hs, p) ->
    Footprint.join
      (Footprint.writes hs.hs_priv)
      (Footprint.remove (footprint p) (Concurroid.label hs.hs_conc))
  | Annot (fp, _) -> fp

(* A shallow printer: continuations are opaque, so only the evaluated
   spine is shown. *)
let rec pp : type a. Format.formatter -> a t -> unit =
 fun ppf -> function
  | Ret _ -> Fmt.string ppf "ret"
  | Bind (p, _) -> Fmt.pf ppf "%a;; _" pp p
  | Act a -> Fmt.string ppf (Action.name a)
  | Par (p, q) -> Fmt.pf ppf "(%a || %a)" pp p pp q
  | ParSplit (_, p, q) -> Fmt.pf ppf "(%a ||s %a)" pp p pp q
  | Ffix (_, _) -> Fmt.string ppf "ffix"
  | Hide (_, p) -> Fmt.pf ppf "hide { %a }" pp p
  | Annot (fp, p) -> Fmt.pf ppf "(%a : %a)" pp p Footprint.pp fp
