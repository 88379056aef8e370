(* The CAS-based spinlock (paper, Section 6, Table 1 row "CAS-lock").

   Layout: one cell [lk] storing a boolean.  Auxiliary state: the mutual
   exclusion PCM paired with a client-chosen ghost PCM,
   self = (Own | NotOwn, client contribution).

   Source regions tagged for the Table 1 reproduction. *)

open Fcsl_heap
open Fcsl_core
open Lock_intf
module Aux = Fcsl_pcm.Aux
module Mutex = Fcsl_pcm.Instances.Mutex

let impl_name = "CAS-lock"

type config = { lk : Ptr.t }

let default_config = { lk = Ptr.of_int 90 }
let config_cells cfg = [ cfg.lk ]

(*!Libs*)
(* Projections of the lock's state shape. *)

let lock_bit cfg joint =
  Option.bind (Heap.find cfg.lk joint) Value.as_bool

let protected_heap cfg joint = Heap.free cfg.lk joint

let split_aux a =
  match Aux.as_pair a with
  | Some (m, g) -> Option.map (fun m -> (m, g)) (Aux.as_mutex m)
  | None -> None

let mutex_of a = Option.map fst (split_aux a)
let ghost_of a = Option.map snd (split_aux a)

let pack_aux m g = Aux.pair (Aux.Mutex m) g

let holds _cfg l st =
  match State.find l st with
  | Some s -> (
    match mutex_of (Slice.self s) with
    | Some Mutex.Own -> true
    | Some Mutex.Not_own | None -> false)
  | None -> false

let self_ghost _cfg l st =
  match State.find l st with
  | Some s -> (
    match ghost_of (Slice.self s) with Some g -> g | None -> Aux.Unit)
  | None -> Aux.Unit
(*!Conc*)

(* Coherence: the joint heap is the lock bit plus the protected cells;
   self/other are (mutex, ghost) pairs; the lock is physically taken iff
   somebody owns the mutex; and when free, the resource invariant ties
   the protected heap to the total ghost. *)
let coh cfg resource s =
  match
    (lock_bit cfg (Slice.joint s), split_aux (Slice.self s),
     split_aux (Slice.other s))
  with
  | Some b, Some (ms, gs), Some (mo, go) -> (
    Slice.valid s
    && b = (ms = Mutex.Own || mo = Mutex.Own)
    &&
    match Aux.join gs go with
    | Some total ->
      if b then true
      else resource.r_inv (protected_heap cfg (Slice.joint s)) total
    | None -> false)
  | _ -> false

(* Acquisition: flip the bit, take the mutex. *)
let lock_tr cfg : Concurroid.transition =
  {
    tr_external = false;
    tr_name = "lock";
    tr_step =
      (fun s ->
        match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
        | Some false, Some (Mutex.Not_own, g) ->
          [
            s
            |> Slice.with_joint
                 (Heap.update cfg.lk (Value.bool true) (Slice.joint s))
            |> Slice.with_self (pack_aux Mutex.Own g);
          ]
        | _ -> []);
  }

(* Release: flip the bit back, surrender the mutex, credit a ghost delta
   restoring the invariant. *)
let unlock_tr cfg resource : Concurroid.transition =
  {
    tr_external = false;
    tr_name = "unlock";
    tr_step =
      (fun s ->
        match
          (lock_bit cfg (Slice.joint s), split_aux (Slice.self s),
           ghost_of (Slice.other s))
        with
        | Some true, Some (Mutex.Own, g), Some go ->
          let prot = protected_heap cfg (Slice.joint s) in
          List.filter_map
            (fun delta ->
              match Aux.join g delta with
              | Some g' -> (
                match Aux.join g' go with
                | Some total when resource.r_inv prot total ->
                  Some
                    (s
                    |> Slice.with_joint
                         (Heap.update cfg.lk (Value.bool false) (Slice.joint s))
                    |> Slice.with_self (pack_aux Mutex.Not_own g'))
                | Some _ | None -> None)
              | None -> None)
            (Aux.Unit :: resource.r_ghosts ())
        | _ -> []);
  }

(* The holder mutates the protected cells (same footprint). *)
let mutate_tr cfg resource : Concurroid.transition =
  {
    tr_external = false;
    tr_name = "mutate";
    tr_step =
      (fun s ->
        match (lock_bit cfg (Slice.joint s), mutex_of (Slice.self s)) with
        | Some true, Some Mutex.Own ->
          let prot = protected_heap cfg (Slice.joint s) in
          resource.r_heaps ()
          |> List.filter (fun h ->
                 (not (Heap.equal h prot))
                 && Ptr.Set.equal (Heap.dom_set h) (Heap.dom_set prot))
          |> List.map (fun h ->
                 Slice.with_joint
                   (Heap.add cfg.lk (Value.bool true) h)
                   s)
        | _ -> []);
  }

let enum cfg resource () =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun (prot, total) ->
          let joint = Heap.add cfg.lk (Value.bool b) prot in
          List.concat_map
            (fun (gs, go) ->
              let mutexes =
                if b then [ (Mutex.Own, Mutex.Not_own); (Mutex.Not_own, Mutex.Own) ]
                else [ (Mutex.Not_own, Mutex.Not_own) ]
              in
              List.map
                (fun (ms, mo) ->
                  Slice.make ~self:(pack_aux ms gs) ~joint
                    ~other:(pack_aux mo go))
                mutexes)
            (ghost_splits total))
        (protected_states resource ~free:(not b)))
    [ false; true ]

let concurroid ~label cfg resource =
  Concurroid.make ~label ~name:"CLock" ~coh:(coh cfg resource)
    ~lock:
      {
        Concurroid.li_held =
          (fun s ->
            match mutex_of (Slice.self s) with
            | Some Mutex.Own -> true
            | Some Mutex.Not_own | None -> false);
        li_acquires = [ "try_lock(" ];
        li_releases = [ "unlock(" ];
      }
    ~transitions:[ lock_tr cfg; unlock_tr cfg resource; mutate_tr cfg resource ]
    ~enum:(enum cfg resource) ()
(*!Acts*)

(* try_lock: erases to CAS(lk, false, true); takes lock_tr on success.
   With [await], the action is only scheduled when it will succeed —
   the blocking reduction of the spin loop (see Sched). *)
let try_lock ?(await = false) l cfg : bool Action.t =
  Action.make
    ~enabled:(fun st ->
      (not await)
      ||
      match State.find l st with
      | Some s -> lock_bit cfg (Slice.joint s) = Some false
      | None -> true)
    ~name:(fun () -> Fmt.str "try_lock(%a)" Ptr.pp cfg.lk)
    ~fp:(Footprint.cases l)
    ~safe:(fun st ->
      match State.find l st with
      | Some s -> (
        match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
        | Some _, Some _ -> true
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn l st in
      match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
      | Some true, _ -> (false, st)
      | Some false, Some (_, g) ->
        let s' =
          s
          |> Slice.with_joint
               (Heap.update cfg.lk (Value.bool true) (Slice.joint s))
          |> Slice.with_self (pack_aux Mutex.Own g)
        in
        (true, State.add l s' st)
      | _ -> assert false)
    ~phys:(fun _ ->
      Action.Cas
        { loc = cfg.lk; expect = Value.bool false; replace = Value.bool true })
    ()

(* unlock: erases to a plain write of false; takes unlock_tr. *)
let unlock_act l cfg resource ~delta : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "unlock(%a)" Ptr.pp cfg.lk)
    ~fp:(Footprint.writes l)
    ~safe:(fun st ->
      match State.find l st with
      | Some s -> (
        match
          (lock_bit cfg (Slice.joint s), split_aux (Slice.self s),
           ghost_of (Slice.other s))
        with
        | Some true, Some (Mutex.Own, g), Some go -> (
          match Option.bind (Aux.join g delta) (Aux.join go) with
          | Some total ->
            resource.r_inv (protected_heap cfg (Slice.joint s)) total
          | None -> false)
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn l st in
      let _, g = Option.get (split_aux (Slice.self s)) in
      let s' =
        s
        |> Slice.with_joint
             (Heap.update cfg.lk (Value.bool false) (Slice.joint s))
        |> Slice.with_self (pack_aux Mutex.Not_own (Aux.join_exn g delta))
      in
      ((), State.add l s' st))
    ~phys:(fun _ -> Action.Write (cfg.lk, Value.bool false))
    ()

(* Protected-cell access, holder only. *)
let read l cfg p : Value.t Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "locked_read(%a)" Ptr.pp p)
    ~fp:(Footprint.reads l)
    ~safe:(fun st ->
      holds cfg l st
      &&
      match State.find l st with
      | Some s -> Heap.mem p (protected_heap cfg (Slice.joint s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn l st in
      (Heap.find_exn p (Slice.joint s), st))
    ~phys:(fun _ -> Action.Read p)
    ()

let write l cfg p v : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "locked_write(%a)" Ptr.pp p)
    ~fp:(Footprint.writes l)
    ~safe:(fun st ->
      holds cfg l st
      &&
      match State.find l st with
      | Some s -> Heap.mem p (protected_heap cfg (Slice.joint s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn l st in
      ((), State.add l (Slice.with_joint (Heap.update p v (Slice.joint s)) s) st))
    ~phys:(fun _ -> Action.Write (p, v))
    ()
(*!Stab*)

(* Stability lemmas for client reasoning. *)

(* Holding the lock is stable: no environment transition can take Own
   out of my self. *)
let assert_holds cfg l st = holds cfg l st

(* While I hold the lock, the protected heap is pinned: only the holder
   mutates it. *)
let assert_protected_pinned cfg l h st =
  holds cfg l st
  &&
  match State.find l st with
  | Some s -> Heap.equal (protected_heap cfg (Slice.joint s)) h
  | None -> false

(* My ghost contribution can only be changed by me. *)
let assert_ghost_is cfg l g st = Fcsl_pcm.Aux.equal (self_ghost cfg l st) g

(* NOT stable (negative control): the lock being free — the environment
   may acquire it at any time. *)
let assert_free cfg l st =
  match State.find l st with
  | Some s -> lock_bit cfg (Slice.joint s) = Some false
  | None -> false
(*!Main*)

(* The spin-lock loop and release. *)
let lock l cfg : unit Prog.t =
  let open Prog in
  Prog.ffix
    (fun loop () ->
      let* b = act (try_lock ~await:true l cfg) in
      if b then ret () else loop ())
    ()

let unlock l cfg resource ~delta : unit Prog.t =
  Prog.act (unlock_act l cfg resource ~delta)

let initial_slice cfg _resource prot total =
  Slice.make
    ~self:(pack_aux Mutex.Not_own Aux.Unit)
    ~joint:(Heap.add cfg.lk (Value.bool false) prot)
    ~other:(pack_aux Mutex.Not_own total)
(*!End*)
