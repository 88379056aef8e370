(* Hoare specifications (paper, Section 2.2.3): a precondition over the
   initial subjective state and a postcondition relating the result, the
   initial state (standing in for the logical variables i, g1 of
   Figure 4) and the final subjective state.

   In Coq, specs are types and ascription is type checking; here they are
   executable predicates and ascription is discharged by the verifier
   (module {!Verify}) and the rule combinators (module {!Rules}). *)

type 'a t = {
  name : string;
  pre : State.t -> bool;
  post : 'a -> State.t -> State.t -> bool; (* result, initial, final *)
}

let make ~name ~pre ~post = { name; pre; post }
let name s = s.name
let pre s st = s.pre st
let post s r i f = s.post r i f

(* Weakening (the rule of consequence builds on these). *)

let implies p q states = List.for_all (fun st -> (not (p st)) || q st) states

(* Conjoin an extra pure postcondition. *)
let strengthen_post extra s =
  { s with post = (fun r i f -> s.post r i f && extra r i f) }

(* Precondition strengthening is always sound. *)
let strengthen_pre extra s = { s with pre = (fun st -> s.pre st && extra st) }

let pp ppf s = Fmt.pf ppf "spec %s" s.name
