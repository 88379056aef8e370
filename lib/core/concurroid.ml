(* Concurroids (paper, Sections 2.2.1 and 3.3): labelled state-transition
   systems whose states are subjective slices [self | joint | other],
   equipped with a coherence predicate carving out the state space, and
   transitions describing the state changes threads may perform.

   The FCSL metatheory imposes laws on concurroids; here they are
   executable checks over a finite enumeration of coherent slices that
   every concurroid instance supplies for verification:

   - transitions preserve coherence;
   - transitions fix the [other] component (only the owner changes it);
   - transitions preserve the real footprint (heap communication between
     concurroids is the business of entangled actions, not transitions);
   - the state space is fork-join closed: realigning a contribution
     between [self] and [other] stays coherent. *)

open Fcsl_heap
module Aux = Fcsl_pcm.Aux

type transition = {
  tr_name : string;
  tr_external : bool;
      (* External (communication) transitions exchange heap ownership
         with other concurroids (the paper's acquire/release channels,
         Section 4.1) and are exempt from footprint preservation. *)
  tr_step : Slice.t -> Slice.t list;
      (* All successor slices via this transition (the transition relation,
         enumerated).  Must not include the argument itself: idle is
         implicit. *)
}

let internal ~name step = { tr_name = name; tr_external = false; tr_step = step }
let external_ ~name step = { tr_name = name; tr_external = true; tr_step = step }

(* Lock-shaped concurroids declare how they are a lock: a dynamic
   holding observer plus the action-name prefixes that acquire and
   release it.  The declaration feeds the static deadlock analysis
   (lock census, acquire/release classification) and the scheduler's
   stuck-state witness (which locks the blocked configuration holds);
   the registry-wide static/dynamic differential keeps it honest. *)
type lock_info = {
  li_held : Slice.t -> bool;
      (* Does the observing thread hold the lock in this slice? *)
  li_acquires : string list;
      (* Action-name prefixes that (begin to) acquire the lock. *)
  li_releases : string list;
      (* Action-name prefixes that release the lock. *)
}

type t = {
  label : Label.t;
  cname : string;
  coh : Slice.t -> bool;
  transitions : transition list;
  justifies : (Slice.t -> Slice.t -> bool) option;
      (* Optional semantic transition relation, for concurroids whose
         transitions are quantified over data that cannot be enumerated
         (e.g. Priv: a thread may rewrite its own heap cells with
         arbitrary values).  When absent, the enumerated [transitions]
         are the relation. *)
  enum : unit -> Slice.t list;
      (* A finite universe of representative coherent slices, the domain
         over which laws and stability are checked. *)
  lock : lock_info option;
}

let make ?justifies ?lock ~label ~name ~coh ~transitions ~enum () =
  { label; cname = name; coh; transitions; justifies; enum; lock }

let lock_info c = c.lock

let held c s =
  match c.lock with None -> false | Some li -> li.li_held s

let justified c s s' =
  match c.justifies with Some j -> j s s' | None -> false

let label c = c.label
let name c = c.cname
let coh c s = c.coh s
let transitions c = c.transitions

let transition_names c = List.map (fun tr -> tr.tr_name) c.transitions
let enum c = c.enum ()

(* All slices reachable from [s] in one (non-idle) self step. *)
let steps c s =
  List.concat_map
    (fun tr -> List.map (fun s' -> (tr.tr_name, s')) (tr.tr_step s))
    c.transitions

(* Environment steps (the paper's [env_steps], one step): transitions
   taken from the transposed viewpoint.  From the observing thread's
   side, [self] is fixed while [joint] and [other] may change. *)
let env_steps c s =
  List.map
    (fun (n, s') -> (n, Slice.transpose s'))
    (steps c (Slice.transpose s))

(* Reflexive-transitive closure of environment stepping, bounded by
   [fuel] rounds; used to validate monotonicity lemmas such as
   [subgraph_steps]. *)
let env_steps_closure ?(fuel = 8) c s =
  let module SS = Set.Make (struct
    type t = Slice.t

    let compare = Slice.compare
  end) in
  let rec go seen frontier n =
    if n = 0 || frontier = [] then seen
    else
      let next =
        List.concat_map (fun s -> List.map snd (env_steps c s)) frontier
      in
      let fresh = List.filter (fun s -> not (SS.mem s seen)) next in
      let seen = List.fold_left (fun acc s -> SS.add s acc) seen fresh in
      go seen fresh (n - 1)
  in
  SS.elements (go (SS.singleton s) [ s ] fuel)

(* Law checking.  Each violation is reported with the transition and a
   printed witness state, so failures pinpoint the broken law. *)

type violation = { law : string; witness : string }

let pp_violation ppf v = Fmt.pf ppf "%s: %s" v.law v.witness

let check_preserves_coh c s acc =
  List.fold_left
    (fun acc (n, s') ->
      if c.coh s' then acc
      else
        { law = "transition " ^ n ^ " breaks coherence";
          witness = Slice.to_string s' }
        :: acc)
    acc (steps c s)

let check_other_fixity c s acc =
  List.fold_left
    (fun acc (n, s') ->
      if Aux.equal (Slice.other s) (Slice.other s') then acc
      else
        { law = "transition " ^ n ^ " changes other";
          witness = Slice.to_string s }
        :: acc)
    acc (steps c s)

let footprint s =
  match State.heap_part (Slice.self s) with
  | None -> None
  | Some hs -> (
    match State.heap_part (Slice.other s) with
    | None -> None
    | Some ho ->
      Option.bind
        (Heap.union (Slice.joint s) hs)
        (fun h -> Heap.union h ho))

let check_footprint c s acc =
  match footprint s with
  | None -> acc
  | Some before ->
    List.fold_left
      (fun acc tr ->
        if tr.tr_external then acc
        else
          List.fold_left
            (fun acc s' ->
              match footprint s' with
              | Some after
                when Ptr.Set.equal (Heap.dom_set before) (Heap.dom_set after)
                -> acc
              | _ ->
                { law = "transition " ^ tr.tr_name ^ " changes footprint";
                  witness = Slice.to_string s }
                :: acc)
            acc (tr.tr_step s))
      acc c.transitions

(* Fork-join closure: for every split self = a • b, moving [b] across to
   [other] keeps the state coherent (and symmetrically, any part of
   [other] may fold into [self]). *)
let check_fork_join c s acc =
  let realigned =
    List.concat_map
      (fun (a, b) ->
        match Aux.join (Slice.other s) b with
        | Some other -> [ Slice.with_other other (Slice.with_self a s) ]
        | None -> [])
      (Aux.splits (Slice.self s))
  in
  List.fold_left
    (fun acc s' ->
      if c.coh s' then acc
      else
        { law = "state space not fork-join closed";
          witness = Slice.to_string s' }
        :: acc)
    acc realigned

let check_laws ?(max_violations = 10) c =
  let slices = List.filter c.coh (c.enum ()) in
  let violations =
    List.fold_left
      (fun acc s ->
        if List.length acc >= max_violations then acc
        else
          acc
          |> check_preserves_coh c s
          |> check_other_fixity c s
          |> check_footprint c s
          |> check_fork_join c s)
      [] slices
  in
  if slices = [] then
    [ { law = "empty coherent enumeration"; witness = c.cname } ]
  else violations

let well_formed c = check_laws c = []

let pp ppf c =
  Fmt.pf ppf "concurroid %s @@ %a (transitions: %a)" c.cname Label.pp c.label
    Fmt.(list ~sep:(any ", ") string)
    (transition_names c)
