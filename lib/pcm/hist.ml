(* Time-stamped action histories (Sergey et al., ESOP 2015), the PCM used
   to specify the pair snapshot, Treiber stack and producer/consumer case
   studies "in the spirit of linearizability" (paper, Section 6).

   A history is a finite map from strictly positive timestamps to
   entries; the join is disjoint union of timestamp domains.  A thread's
   [self] history records the operations it performed; [self • other] is
   the complete linear history of the shared structure. *)

open Fcsl_heap

module Int_map = Map.Make (Int)

(* An entry records one abstract operation: its name, argument, result,
   and the abstract state of the structure just after the operation. *)
type entry = {
  op : string;
  arg : Value.t;
  res : Value.t;
  state : Value.t;
}

let entry ?(arg = Value.unit) ?(res = Value.unit) ?(state = Value.unit) op =
  { op; arg; res; state }

let entry_equal e1 e2 =
  e1 == e2
  || String.equal e1.op e2.op
  && Value.equal e1.arg e2.arg
  && Value.equal e1.res e2.res
  && Value.equal e1.state e2.state

let pp_entry ppf e =
  Fmt.pf ppf "%s(%a) = %a @@ %a" e.op Value.pp e.arg Value.pp e.res Value.pp
    e.state

type t = entry Int_map.t

let empty : t = Int_map.empty
let is_empty = Int_map.is_empty
let cardinal = Int_map.cardinal

let add ts e (h : t) =
  if ts <= 0 then invalid_arg "Hist.add: timestamps are positive"
  else if Int_map.mem ts h then invalid_arg "Hist.add: timestamp taken"
  else Int_map.add ts e h

let find ts (h : t) = Int_map.find_opt ts h
let mem ts (h : t) = Int_map.mem ts h
let timestamps (h : t) = List.map fst (Int_map.bindings h)
let entries (h : t) = List.map snd (Int_map.bindings h)
let bindings (h : t) = Int_map.bindings h

let last_ts (h : t) =
  match Int_map.max_binding_opt h with Some (ts, _) -> ts | None -> 0

(* The smallest timestamp not yet used in [h]; with [h = self • other]
   this is the linearization point a new operation claims. *)
let fresh_ts (h : t) = last_ts h + 1

let disjoint (h1 : t) (h2 : t) =
  Int_map.for_all (fun ts _ -> not (Int_map.mem ts h2)) h1

let join (h1 : t) (h2 : t) =
  if disjoint h1 h2 then
    Some (Int_map.union (fun _ e _ -> Some e) h1 h2)
  else None

let join_exn h1 h2 =
  match join h1 h2 with
  | Some h -> h
  | None -> invalid_arg "Hist.join_exn: overlapping timestamps"

let unit = empty
let equal (h1 : t) (h2 : t) = h1 == h2 || Int_map.equal entry_equal h1 h2

let entry_compare e1 e2 =
  let c = String.compare e1.op e2.op in
  if c <> 0 then c
  else
    let c = Value.compare e1.arg e2.arg in
    if c <> 0 then c
    else
      let c = Value.compare e1.res e2.res in
      if c <> 0 then c else Value.compare e1.state e2.state

let compare (h1 : t) (h2 : t) = Int_map.compare entry_compare h1 h2

(* Canonical: folds in ascending timestamp order, consistent with
   {!equal}. *)
let hash (h : t) =
  Int_map.fold
    (fun ts e acc ->
      let he =
        (((((Hashtbl.hash e.op * 33) lxor Value.hash e.arg) * 33)
         lxor Value.hash e.res)
         * 33)
        lxor Value.hash e.state
      in
      (((acc * 33) lxor ts) * 33) lxor he)
    h 5381

(* [continuous h]: the timestamps of [h] form the contiguous range
   1..n — the invariant of a complete history [self • other]. *)
let continuous (h : t) =
  let n = cardinal h in
  let rec go i = i > n || (Int_map.mem i h && go (i + 1)) in
  go 1

(* [subhist h1 h2]: every stamped entry of [h1] occurs in [h2]. *)
let subhist (h1 : t) (h2 : t) =
  Int_map.for_all
    (fun ts e ->
      match Int_map.find_opt ts h2 with
      | Some e' -> entry_equal e e'
      | None -> false)
    h1

let fold f (h : t) acc = Int_map.fold f h acc

let filter f (h : t) = Int_map.filter f h

let pp ppf (h : t) =
  let pp_binding ppf (ts, e) = Fmt.pf ppf "%d: %a" ts pp_entry e in
  if is_empty h then Fmt.string ppf "<empty history>"
  else Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_binding) (bindings h)

let to_string h = Fmt.str "%a" pp h

(* The PCM instance packaging. *)
module Pcm_instance : Pcm.S with type t = t = struct
  type nonrec t = t

  let unit = unit
  let join = join
  let equal = equal
  let pp = pp
end
