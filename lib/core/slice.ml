(* One concurroid's portion of a subjective state: the triple
   [self | joint | other] of Section 2.2.1.  [self] and [other] are PCM
   elements owned by the observing thread and its environment; the joint
   component is shared state every thread can change (subject to the
   protocol).

   As in the paper, each component may mix real state (heap) and
   auxiliary state.  The joint component is split here into its real
   heap [joint] and its auxiliary part [jaux]; the latter is erased
   before execution and is used e.g. by the flat combiner's
   pending-request ghost map. *)

open Fcsl_heap
module Aux = Fcsl_pcm.Aux

type t = { self : Aux.t; joint : Heap.t; jaux : Aux.t; other : Aux.t }

let make_jaux ~self ~joint ~jaux ~other = { self; joint; jaux; other }
let make ~self ~joint ~other = { self; joint; jaux = Aux.Unit; other }

let self s = s.self
let joint s = s.joint
let jaux s = s.jaux
let other s = s.other

let empty =
  { self = Aux.Unit; joint = Heap.empty; jaux = Aux.Unit; other = Aux.Unit }

(* Subjective transposition: swap the roles of the observing thread and
   its environment.  Interference is transitions taken from the
   transposed viewpoint (Section 2.2.1).  The joint components are
   shared and unaffected. *)
let transpose s = { s with self = s.other; other = s.self }

(* [self • other] must be defined: the two contributions are compatible
   pieces of one PCM. *)
let valid s = Aux.defined s.self s.other

let combined s = Aux.join s.self s.other
let combined_exn s = Aux.join_exn s.self s.other

let with_self self s = { s with self }
let with_joint joint s = { s with joint }
let with_jaux jaux s = { s with jaux }
let with_other other s = { s with other }

(* Fork-join realignment (Section 3.3): replace the (self, other) split
   by a new split with the same combined value.  The state spaces of
   well-formed concurroids are closed under these. *)
let realign s ~self ~other =
  match (Aux.join s.self s.other, Aux.join self other) with
  | Some old_total, Some new_total when Aux.equal old_total new_total ->
    Some { s with self; other }
  | _ -> None

let equal s1 s2 =
  Aux.equal s1.self s2.self
  && Heap.equal s1.joint s2.joint
  && Aux.equal s1.jaux s2.jaux
  && Aux.equal s1.other s2.other

let compare s1 s2 =
  let c = Aux.compare s1.self s2.self in
  if c <> 0 then c
  else
    let c = Heap.compare s1.joint s2.joint in
    if c <> 0 then c
    else
      let c = Aux.compare s1.jaux s2.jaux in
      if c <> 0 then c else Aux.compare s1.other s2.other

let hash s =
  (((((Aux.hash s.self * 33) lxor Heap.hash s.joint) * 33)
   lxor Aux.hash s.jaux)
   * 33)
  lxor Aux.hash s.other

let pp ppf s =
  if Aux.is_unit s.jaux then
    Fmt.pf ppf "[@[self %a |@ joint %a |@ other %a@]]" Aux.pp s.self Heap.pp
      s.joint Aux.pp s.other
  else
    Fmt.pf ppf "[@[self %a |@ joint %a & %a |@ other %a@]]" Aux.pp s.self
      Heap.pp s.joint Aux.pp s.jaux Aux.pp s.other

let to_string s = Fmt.str "%a" pp s
