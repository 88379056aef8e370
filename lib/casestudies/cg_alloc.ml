(* The coarse-grained memory allocator (paper, Sections 4.1 and 6,
   Table 1 row "CG allocator"): a lock-protected pool of free cells.
   [alloc] logically transfers a pointer from the allocator's concurroid
   into the caller's private heap, so the whole procedure runs in the
   entangled world [Priv pv ⋈ ALock al] — the paper's example of
   concurroid composition, and the demonstration that allocation is
   definable rather than primitive.

   Like CG increment, the allocator is a functor over the abstract lock
   interface (Table 1: no new concurroid/actions/stability sections). *)

open Fcsl_heap
open Fcsl_core
open Lock_intf
module Aux = Fcsl_pcm.Aux

module Make (L : LOCK) = struct
  (*!Main*)
  let pool_cells = List.map Ptr.of_int [ 60; 61; 62 ]

  let subsets xs =
    List.fold_left (fun acc x -> acc @ List.map (fun s -> x :: s) acc) [ [] ] xs

  (* The pool resource: any subset of the pool cells, no invariant, no
     client ghost. *)
  let resource =
    {
      r_name = "pool";
      r_inv = (fun _ _ -> true);
      r_heaps =
        (fun () ->
          List.map
            (fun cells ->
              List.fold_left
                (fun h p -> Heap.add p (Value.int 0) h)
                Heap.empty cells)
            (subsets pool_cells));
      r_ghosts = (fun () -> [ Aux.Unit ]);
    }

  let cfg = L.default_config
  let concurroid ~label = L.concurroid ~label cfg resource

  (* peek_pool: an idle action observing a free cell (the freelist head);
     requires holding the lock, so the observation is stable. *)
  let peek_pool al : Ptr.t option Action.t =
    Action.make ~name:(fun () -> "peek_pool")
      ~fp:(Footprint.reads al)
      ~safe:(fun st -> L.holds cfg al st)
      ~step:(fun st ->
        let s = State.find_exn al st in
        let pool =
          Heap.filter
            (fun p _ -> List.exists (Ptr.equal p) pool_cells)
            (Slice.joint s)
        in
        (List.nth_opt (Heap.dom pool) 0, st))
      ~phys:(fun _ -> Action.Id)
      ()

  (* take_cell: the communicating action transferring one pool cell from
     the allocator's joint heap into the caller's private heap.
     Physically a no-op (ownership transfer); the global footprint is
     preserved. *)
  let take_cell al pv p : unit Action.t =
    Action.make ~communicating:true
      ~name:(fun () -> Fmt.str "take_cell(%a)" Ptr.pp p)
      ~fp:(Footprint.join (Footprint.writes al) (Footprint.writes pv))
      ~safe:(fun st ->
        L.holds cfg al st
        && Heap.mem p (State.joint al st)
        && List.exists (Ptr.equal p) pool_cells
        && Option.is_some (Aux.as_heap (State.self pv st)))
      ~step:(fun st ->
        let v = Heap.find_exn p (State.joint al st) in
        let priv = Option.get (Aux.as_heap (State.self pv st)) in
        let st =
          st
          |> State.with_joint al (Heap.free p (State.joint al st))
          |> State.with_self pv (Aux.heap (Heap.add p v priv))
        in
        ((), st))
      ~phys:(fun _ -> Action.Id)
      ()

  (* put_cell: the reverse transfer, used by [dealloc]. *)
  let put_cell al pv p : unit Action.t =
    Action.make ~communicating:true
      ~name:(fun () -> Fmt.str "put_cell(%a)" Ptr.pp p)
      ~fp:(Footprint.join (Footprint.writes al) (Footprint.writes pv))
      ~safe:(fun st ->
        L.holds cfg al st
        && (match Aux.as_heap (State.self pv st) with
           | Some h -> Heap.mem p h
           | None -> false)
        && List.exists (Ptr.equal p) pool_cells)
      ~step:(fun st ->
        let priv = Option.get (Aux.as_heap (State.self pv st)) in
        let st =
          st
          |> State.with_joint al
               (Heap.add p (Value.int 0) (State.joint al st))
          |> State.with_self pv (Aux.heap (Heap.free p priv))
        in
        ((), st))
      ~phys:(fun _ -> Action.Id)
      ()

  (* try_alloc: lock; hand over a free cell if any; unlock. *)
  let try_alloc al pv : Ptr.t option Prog.t =
    let open Prog in
    let* () = L.lock al cfg in
    let* free = act (peek_pool al) in
    match free with
    | Some p ->
      let* () = act (take_cell al pv p) in
      let* () = L.unlock al cfg resource ~delta:Aux.Unit in
      ret (Some p)
    | None ->
      let* () = L.unlock al cfg resource ~delta:Aux.Unit in
      ret None

  (* alloc: the paper's spin loop over try_alloc (Section 4.1). *)
  let alloc al pv : Ptr.t Prog.t =
    Prog.ffix
      (fun loop () ->
        Prog.bind (try_alloc al pv) (fun res ->
            match res with Some r -> Prog.ret r | None -> loop ()))
      ()

  (* dealloc: return a cell to the pool. *)
  let dealloc al pv p : unit Prog.t =
    let open Prog in
    let* () = L.lock al cfg in
    let* () = act (put_cell al pv p) in
    L.unlock al cfg resource ~delta:Aux.Unit

  (* The paper's alloc spec: the private heap grows by exactly one
     pointer storing some value. *)
  let alloc_spec pv al : Ptr.t Spec.t =
    Spec.make
      ~name:(Fmt.str "%s_alloc" L.impl_name)
      ~pre:(fun st ->
        (not (L.holds cfg al st))
        && Option.is_some (Aux.as_heap (State.self pv st)))
      ~post:(fun r i f ->
        match
          (Aux.as_heap (State.self pv i), Aux.as_heap (State.self pv f))
        with
        | Some hi, Some hf ->
          (not (Heap.mem r hi))
          && Heap.mem r hf
          && Heap.equal (Heap.free r hf) hi
        | _ -> false)

  (* Allocate then deallocate: the private heap is restored. *)
  let alloc_dealloc al pv : unit Prog.t =
    Prog.bind (alloc al pv) (fun p -> dealloc al pv p)

  let alloc_dealloc_spec pv al : unit Spec.t =
    Spec.make
      ~name:(Fmt.str "%s_alloc;dealloc" L.impl_name)
      ~pre:(fun st ->
        (not (L.holds cfg al st))
        && Option.is_some (Aux.as_heap (State.self pv st)))
      ~post:(fun () i f ->
        match
          (Aux.as_heap (State.self pv i), Aux.as_heap (State.self pv f))
        with
        | Some hi, Some hf -> Heap.equal hi hf
        | _ -> false)

  let al_label = Label.make (L.impl_name ^ "_alloc")
  let pv_label = Label.make (L.impl_name ^ "_alloc_priv")

  let world () =
    World.of_list [ Priv.make pv_label; concurroid ~label:al_label ]

  let init_states () = World.enum (world ())

  let verify ?(fuel = 20) ?(env_budget = 2) ?(max_outcomes = 400_000) () :
      Verify.report list =
    let w = world () in
    let init = init_states () in
    [
      Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
        (alloc al_label pv_label)
        (alloc_spec pv_label al_label);
      Verify.check_triple ~fuel ~env_budget:(env_budget - 1) ~max_outcomes
        ~world:w ~init
        (alloc_dealloc al_label pv_label)
        (alloc_dealloc_spec pv_label al_label);
    ]
  (*!End*)
end

module Cas = Make (Caslock)
module Ticketed = Make (Ticketlock)
