(* Atomic actions (paper, Sections 2.2.2 and 3.4): a single physical
   read-modify-write operation on the real heap, fused with an arbitrary
   simultaneous change to the auxiliary state.

   An action provides:
   - a safety predicate (the action's "natural precondition": running it
     in an unsafe state is a verification failure, i.e. a crash);
   - a deterministic step on subjective states;
   - an erasure: the physical operation the step performs once auxiliary
     state is dropped — [trymark] erases to CAS (Section 3.4);
   - the concurroid transitions it may take, for the correspondence law.

   The metatheory laws (erasure, other-fixity, transition correspondence,
   footprint preservation for non-communicating actions) are executable
   checks in {!check_laws}, run by every case study's test suite. *)

open Fcsl_heap
module Aux = Fcsl_pcm.Aux

(* Physical operations, for erasure checking.  [apply_phys] is the
   machine: what the operation does to a raw heap. *)
type phys =
  | Read of Ptr.t
  | Write of Ptr.t * Value.t
  | Cas of { loc : Ptr.t; expect : Value.t; replace : Value.t }
  | Faa of { loc : Ptr.t; incr : int }  (* fetch-and-add, for ticketed lock *)
  | Id

let pp_phys ppf = function
  | Read p -> Fmt.pf ppf "read %a" Ptr.pp p
  | Write (p, v) -> Fmt.pf ppf "%a := %a" Ptr.pp p Value.pp v
  | Cas { loc; expect; replace } ->
    Fmt.pf ppf "CAS(%a, %a, %a)" Ptr.pp loc Value.pp expect Value.pp replace
  | Faa { loc; incr } -> Fmt.pf ppf "FAA(%a, %d)" Ptr.pp loc incr
  | Id -> Fmt.string ppf "id"

(* [apply_phys op h] returns the updated heap and the operation's
   physical result; [None] when the operation faults (unbound pointer,
   ill-shaped cell). *)
let apply_phys op h =
  match op with
  | Read p ->
    Option.map (fun v -> (h, v)) (Heap.find p h)
  | Write (p, v) ->
    if Heap.mem p h then Some (Heap.update p v h, Value.unit) else None
  | Cas { loc; expect; replace } ->
    Option.map
      (fun v ->
        if Value.equal v expect then (Heap.update loc replace h, Value.bool true)
        else (h, Value.bool false))
      (Heap.find loc h)
  | Faa { loc; incr } ->
    Option.bind (Heap.find loc h) (fun v ->
        Option.map
          (fun n -> (Heap.update loc (Value.int (n + incr)) h, Value.int n))
          (Value.as_int v))
  | Id -> Some (h, Value.unit)

type 'a t = {
  name : unit -> string;
      (* Rendered only when read: exploration rebuilds a configuration's
         actions at every continuation application, and reads a name
         only for a report (a crash trace, a deadlock witness, a
         lint). *)
  safe : State.t -> bool;
  enabled : State.t -> bool;
      (* Scheduling guard: a disabled action blocks its thread instead of
         stepping.  Used to give retry-until-success loops (lock
         acquisition spins) their blocking semantics during exhaustive
         exploration — sound for partial correctness, since failed spins
         do not change the state. *)
  blocking : bool;
      (* Whether an [enabled] guard was declared at all: the static
         deadlock analysis classifies guarded actions as potential
         blocking points, unguarded ones as always schedulable. *)
  step : State.t -> 'a * State.t;
  phys : State.t -> phys;
      (* The physical operation this step performs in this state. *)
  communicating : bool;
      (* Communicating actions step several concurroids at once and may
         transfer heap ownership between them (Section 4.1); they are
         exempt from per-label transition correspondence but must still
         preserve the global footprint. *)
  fp : Footprint.t;
      (* Declared effect envelope: which labels the action may touch, and
         how.  Defaults to [Top] (unknown); declared envelopes feed the
         static analyzer, the lints and the independence report. *)
}

let make ?(communicating = false) ?enabled ?(fp = Footprint.top) ~name ~safe
    ~step ~phys () =
  let blocking = Option.is_some enabled in
  let enabled = Option.value enabled ~default:(fun _ -> true) in
  { name; safe; enabled; step; phys; communicating; fp; blocking }

let name a = a.name ()
let name_thunk a = a.name
let safe a st = a.safe st
let enabled a st = a.enabled st
let blocking a = a.blocking
let phys a st = a.phys st
let footprint a = a.fp

let step a st = a.step st

let step_exn a st =
  if a.safe st then a.step st
  else invalid_arg (Fmt.str "Action.step_exn: %s unsafe" (name a))

(* [map f a]: post-compose the result; the state transformation is
   unchanged, so all laws transfer. *)
let map f a =
  {
    a with
    step =
      (fun st ->
        let r, st' = a.step st in
        (f r, st'));
  }

(* Law checking (Section 3.4). *)

type violation = { law : string; witness : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.law v.witness

(* Erasure: stepping the action and then erasing auxiliary state equals
   applying the physical operation to the erased pre-state. *)
let check_erasure a st acc =
  let _, st' = a.step st in
  match (State.erase st, State.erase st') with
  | Some before, Some after -> (
    match apply_phys (a.phys st) before with
    | Some (expected, _) when Heap.equal expected after -> acc
    | Some (expected, _) ->
      {
        law = name a ^ " violates erasure";
        witness =
          Fmt.str "expected %a, got %a" Heap.pp expected Heap.pp after;
      }
      :: acc
    | None ->
      {
        law = name a ^ ": physical op faults on erased heap";
        witness = Fmt.str "%a" pp_phys (a.phys st);
      }
      :: acc)
  | _ ->
    { law = name a ^ ": erased state invalid"; witness = State.to_string st }
    :: acc

(* Other-fixity: an action never changes the environment's contribution. *)
let check_other_fixity a st acc =
  let _, st' = a.step st in
  let ok =
    List.for_all
      (fun l ->
        match (State.find l st, State.find l st') with
        | Some s, Some s' -> Aux.equal (Slice.other s) (Slice.other s')
        | None, None -> true
        | Some _, None | None, Some _ -> false)
      (State.labels st)
  in
  if ok then acc
  else
    { law = name a ^ " changes other"; witness = State.to_string st } :: acc

(* Transition correspondence: at every label, the slice change is either
   idle or one of the concurroid's transitions. *)
let check_correspondence (w : World.t) a st acc =
  if a.communicating then acc
  else
    let _, st' = a.step st in
    List.fold_left
      (fun acc c ->
        let l = Concurroid.label c in
        match (State.find l st, State.find l st') with
        | Some s, Some s' ->
          if Slice.equal s s' then acc
          else if
            List.exists
              (fun (_, s'') -> Slice.equal s' s'')
              (Concurroid.steps c s)
            || Concurroid.justified c s s'
          then acc
          else
            {
              law =
                Fmt.str "%s: no %s transition justifies the step" (name a)
                  (Concurroid.name c);
              witness = Fmt.str "%a -> %a" Slice.pp s Slice.pp s';
            }
            :: acc
        | _ -> acc)
      acc (World.concurroids w)

(* Global footprint preservation: no action conjures or leaks memory;
   ownership transfer is fine, allocation draws from an allocator pool. *)
let check_footprint a st acc =
  let _, st' = a.step st in
  match (State.erase st, State.erase st') with
  | Some before, Some after ->
    if Ptr.Set.equal (Heap.dom_set before) (Heap.dom_set after) then acc
    else
      {
        law = name a ^ " changes the global footprint";
        witness = Fmt.str "%a -> %a" Heap.pp before Heap.pp after;
      }
      :: acc
  | _ -> acc

(* Coherence preservation. *)
let check_coh (w : World.t) a st acc =
  let _, st' = a.step st in
  if World.coh w st' then acc
  else
    { law = name a ^ " breaks world coherence"; witness = State.to_string st' }
    :: acc

let check_laws ?(max_violations = 10) (w : World.t) a ~states =
  List.fold_left
    (fun acc st ->
      if List.length acc >= max_violations then acc
      else if not (World.coh w st && a.safe st) then acc
      else
        acc
        |> check_erasure a st
        |> check_other_fixity a st
        |> check_correspondence w a st
        |> check_footprint a st
        |> check_coh w a st)
    [] states
