(* The ticketed lock (paper, Section 6, Table 1 row "Ticketed lock").

   Layout: two cells, [next] (the ticket dispenser) and [owner] (the
   ticket currently being served).  Auxiliary state: self = (set of
   tickets this thread has drawn and not yet retired, client ghost).
   A thread holds the lock exactly when the [owner] ticket is in its
   ticket set.  Tickets are encoded as pointers (the ticket number). *)

open Fcsl_heap
open Fcsl_core
open Lock_intf
module Aux = Fcsl_pcm.Aux

let impl_name = "Ticketed lock"

type config = { next : Ptr.t; owner : Ptr.t }

let default_config = { next = Ptr.of_int 91; owner = Ptr.of_int 92 }
let config_cells cfg = [ cfg.next; cfg.owner ]

(*!Libs*)
let ticket n = Ptr.of_int n

let cell_int p joint = Option.bind (Heap.find p joint) Value.as_int

let next_of cfg joint = cell_int cfg.next joint
let owner_of cfg joint = cell_int cfg.owner joint

let protected_heap cfg joint = Heap.free cfg.next (Heap.free cfg.owner joint)

let split_aux a =
  match Aux.as_pair a with
  | Some (t, g) -> Option.map (fun s -> (s, g)) (Aux.as_set t)
  | None -> None

let pack_aux tickets g = Aux.pair (Aux.set tickets) g

let holds cfg l st =
  match State.find l st with
  | Some s -> (
    match (owner_of cfg (Slice.joint s), split_aux (Slice.self s)) with
    | Some o, Some (tickets, _) -> Ptr.Set.mem (ticket o) tickets
    | _ -> false)
  | None -> false
(*!Conc*)

(* Coherence: owner ≤ next; the live tickets [owner, next) are exactly
   the disjoint union of the threads' ticket sets; when no live ticket
   exists the lock is free and the invariant holds. *)
let coh cfg resource s =
  match
    (next_of cfg (Slice.joint s), owner_of cfg (Slice.joint s),
     split_aux (Slice.self s), split_aux (Slice.other s))
  with
  | Some n, Some o, Some (ts, gs), Some (tos, go) -> (
    Slice.valid s && 1 <= o && o <= n
    && Ptr.Set.is_empty (Ptr.Set.inter ts tos)
    &&
    let live = Ptr.Set.of_list (List.init (n - o) (fun i -> ticket (o + i))) in
    Ptr.Set.equal (Ptr.Set.union ts tos) live
    &&
    match Aux.join gs go with
    | Some total ->
      if o = n then resource.r_inv (protected_heap cfg (Slice.joint s)) total
      else true
    | None -> false)
  | _ -> false

(* Draw a ticket: bump [next], add the drawn ticket to self. *)
let take_ticket_tr cfg : Concurroid.transition =
  {
    tr_external = false;
    tr_name = "take_ticket";
    tr_step =
      (fun s ->
        match (next_of cfg (Slice.joint s), split_aux (Slice.self s)) with
        | Some n, Some (ts, g) ->
          [
            s
            |> Slice.with_joint
                 (Heap.update cfg.next (Value.int (n + 1)) (Slice.joint s))
            |> Slice.with_self (pack_aux (Ptr.Set.add (ticket n) ts) g);
          ]
        | _ -> []);
  }

(* Retire the served ticket: bump [owner], drop the ticket, credit a
   ghost delta restoring the invariant (the next holder assumes it). *)
let unlock_tr cfg resource : Concurroid.transition =
  {
    tr_external = false;
    tr_name = "unlock";
    tr_step =
      (fun s ->
        match
          (owner_of cfg (Slice.joint s), split_aux (Slice.self s),
           split_aux (Slice.other s))
        with
        | Some o, Some (ts, g), Some (_, go) when Ptr.Set.mem (ticket o) ts ->
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
                         (Heap.update cfg.owner (Value.int (o + 1))
                            (Slice.joint s))
                    |> Slice.with_self
                         (pack_aux (Ptr.Set.remove (ticket o) ts) g'))
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
        match (owner_of cfg (Slice.joint s), split_aux (Slice.self s)) with
        | Some o, Some (ts, _) when Ptr.Set.mem (ticket o) ts ->
          let prot = protected_heap cfg (Slice.joint s) in
          resource.r_heaps ()
          |> List.filter (fun h ->
                 (not (Heap.equal h prot))
                 && Ptr.Set.equal (Heap.dom_set h) (Heap.dom_set prot))
          |> List.map (fun h ->
                 Slice.with_joint
                   (Heap.add cfg.next
                      (Value.int (Option.get (next_of cfg (Slice.joint s))))
                      (Heap.add cfg.owner (Value.int o) h))
                   s)
        | _ -> []);
  }

let enum cfg resource () =
  List.concat_map
    (fun o ->
      List.concat_map
        (fun waiting ->
          let n = o + waiting in
          let free = o = n in
          List.concat_map
            (fun (prot, total) ->
              let joint =
                Heap.add cfg.next (Value.int n)
                  (Heap.add cfg.owner (Value.int o) prot)
              in
              let live =
                Ptr.Set.of_list (List.init (n - o) (fun i -> ticket (o + i)))
              in
              List.concat_map
                (fun (gs, go) ->
                  List.filter_map
                    (fun (ts, tos) ->
                      match (ts, tos) with
                      | Aux.Set ts, Aux.Set tos ->
                        Some
                          (Slice.make ~self:(pack_aux ts gs) ~joint
                             ~other:(pack_aux tos go))
                      | _ -> None)
                    (Aux.splits (Aux.set live)))
                (ghost_splits total))
            (protected_states resource ~free))
        [ 0; 1; 2 ])
    [ 1; 2 ]

let concurroid ~label cfg resource =
  Concurroid.make ~label ~name:"TLock" ~coh:(coh cfg resource)
    ~lock:
      {
        Concurroid.li_held =
          (fun s ->
            match (owner_of cfg (Slice.joint s), split_aux (Slice.self s)) with
            | Some o, Some (tickets, _) -> Ptr.Set.mem (ticket o) tickets
            | _ -> false);
        li_acquires = [ "take_ticket("; "read_owner(" ];
        li_releases = [ "tl_unlock(" ];
      }
    ~transitions:
      [ take_ticket_tr cfg; unlock_tr cfg resource; mutate_tr cfg resource ]
    ~enum:(enum cfg resource) ()
(*!Acts*)

let slice_shape_ok cfg st l =
  match State.find l st with
  | Some s ->
    Option.is_some (next_of cfg (Slice.joint s))
    && Option.is_some (owner_of cfg (Slice.joint s))
    && Option.is_some (split_aux (Slice.self s))
  | None -> false

(* take_ticket: erases to FAA(next, 1); takes take_ticket_tr. *)
let take_ticket l cfg : int Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "take_ticket(%a)" Ptr.pp cfg.next)
    ~fp:(Footprint.writes l)
    ~safe:(fun st -> slice_shape_ok cfg st l)
    ~step:(fun st ->
      let s = State.find_exn l st in
      let n = Option.get (next_of cfg (Slice.joint s)) in
      let ts, g = Option.get (split_aux (Slice.self s)) in
      let s' =
        s
        |> Slice.with_joint
             (Heap.update cfg.next (Value.int (n + 1)) (Slice.joint s))
        |> Slice.with_self (pack_aux (Ptr.Set.add (ticket n) ts) g)
      in
      (n, State.add l s' st))
    ~phys:(fun _ -> Action.Faa { loc = cfg.next; incr = 1 })
    ()

(* read_owner: idle read of the serving counter.  With [awaiting], the
   read is only scheduled once the counter reaches that ticket — the
   blocking reduction of the wait loop. *)
let read_owner ?awaiting l cfg : int Action.t =
  Action.make
    ~enabled:(fun st ->
      match awaiting with
      | None -> true
      | Some t -> (
        match State.find l st with
        | Some s -> owner_of cfg (Slice.joint s) = Some t
        | None -> true))
    ~name:(fun () -> Fmt.str "read_owner(%a)" Ptr.pp cfg.owner)
    ~fp:(Footprint.reads l)
    ~safe:(fun st -> slice_shape_ok cfg st l)
    ~step:(fun st ->
      let s = State.find_exn l st in
      (Option.get (owner_of cfg (Slice.joint s)), st))
    ~phys:(fun _ -> Action.Read cfg.owner)
    ()

(* unlock: erases to a write of owner+1; takes unlock_tr. *)
let unlock_act l cfg resource ~delta : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "tl_unlock(%a)" Ptr.pp cfg.owner)
    ~fp:(Footprint.writes l)
    ~safe:(fun st ->
      holds cfg l st
      &&
      match State.find l st with
      | Some s -> (
        let _, g = Option.get (split_aux (Slice.self s)) in
        match split_aux (Slice.other s) with
        | Some (_, go) -> (
          match Option.bind (Aux.join g delta) (Aux.join go) with
          | Some total ->
            resource.r_inv (protected_heap cfg (Slice.joint s)) total
          | None -> false)
        | None -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn l st in
      let o = Option.get (owner_of cfg (Slice.joint s)) in
      let ts, g = Option.get (split_aux (Slice.self s)) in
      let s' =
        s
        |> Slice.with_joint
             (Heap.update cfg.owner (Value.int (o + 1)) (Slice.joint s))
        |> Slice.with_self
             (pack_aux (Ptr.Set.remove (ticket o) ts) (Aux.join_exn g delta))
      in
      ((), State.add l s' st))
    ~phys:(fun st ->
      let s = State.find_exn l st in
      let o = Option.get (owner_of cfg (Slice.joint s)) in
      Action.Write (cfg.owner, Value.int (o + 1)))
    ()

(* Protected-cell access, holder only. *)
let read l cfg p : Value.t Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "tl_read(%a)" Ptr.pp p)
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
    ~name:(fun () -> Fmt.str "tl_write(%a)" Ptr.pp p)
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

(* Stability lemmas. *)

(* A drawn ticket stays mine until I retire it. *)
let assert_ticket_owned cfg l t st =
  match State.find l st with
  | Some s -> (
    ignore cfg;
    match split_aux (Slice.self s) with
    | Some (ts, _) -> Ptr.Set.mem (ticket t) ts
    | None -> false)
  | None -> false

(* The serving counter only grows. *)
let assert_owner_at_least cfg l n st =
  match State.find l st with
  | Some s -> (
    match owner_of cfg (Slice.joint s) with
    | Some o -> o >= n
    | None -> false)
  | None -> false

(* Once the counter reaches my ticket, it stays there until I retire:
   the ticket-lock handoff discipline. *)
let assert_being_served cfg l t st =
  match State.find l st with
  | Some s -> (
    match (owner_of cfg (Slice.joint s), split_aux (Slice.self s)) with
    | Some o, Some (ts, _) -> o = t && Ptr.Set.mem (ticket t) ts
    | _ -> false)
  | None -> false

(* While served, the protected heap is pinned. *)
let assert_protected_pinned cfg l h st =
  holds cfg l st
  &&
  match State.find l st with
  | Some s -> Heap.equal (protected_heap cfg (Slice.joint s)) h
  | None -> false
(*!Main*)

(* Acquire: draw a ticket, spin until served. *)
let lock l cfg : unit Prog.t =
  let open Prog in
  let* t = act (take_ticket l cfg) in
  Prog.ffix
    (fun loop () ->
      let* o = act (read_owner ~awaiting:t l cfg) in
      if o = t then ret () else loop ())
    ()

let unlock l cfg resource ~delta : unit Prog.t =
  Prog.act (unlock_act l cfg resource ~delta)

let self_ghost _cfg l st =
  match State.find l st with
  | Some s -> (
    match split_aux (Slice.self s) with Some (_, g) -> g | None -> Aux.Unit)
  | None -> Aux.Unit

let initial_slice cfg _resource prot total =
  Slice.make
    ~self:(pack_aux Ptr.Set.empty Aux.Unit)
    ~joint:
      (Heap.add cfg.next (Value.int 1)
         (Heap.add cfg.owner (Value.int 1) prot))
    ~other:(pack_aux Ptr.Set.empty total)
(*!End*)
