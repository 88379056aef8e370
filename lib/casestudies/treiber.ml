(* Treiber's non-blocking stack (paper, Section 6, Table 1 row "Treiber
   stack"): a [top] pointer CAS-swung over a linked list of nodes.
   Popped nodes are retired in place (they stay in the joint heap as
   garbage), which is what rules out ABA in the algorithm.

   Specs use the PCM of time-stamped histories: each successful push or
   pop stamps an entry, owned by the thread that performed it, recording
   the operation and the abstract stack contents it produced; coherence
   forces the combined history to be a legal LIFO run whose last state
   matches the physical list. *)

open Fcsl_heap
open Fcsl_core
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

(*!Libs*)
let top_cell = Ptr.of_int 80

(* Pointers the environment may use for its own pushed nodes during
   interference. *)
let env_node_cells = List.map Ptr.of_int [ 85; 86 ]

(* Abstract stack contents encoded as a Value list. *)
let rec encode_stack = function
  | [] -> Value.Unit
  | v :: rest -> Value.Pair (Value.int v, encode_stack rest)

let rec decode_stack v =
  match v with
  | Value.Unit -> Some []
  | Value.Pair (Value.Int x, rest) ->
    Option.map (fun r -> x :: r) (decode_stack rest)
  | _ -> None

let node_of joint p =
  Option.bind (Heap.find p joint) (fun v ->
      match Value.as_pair v with
      | Some (Value.Int x, Value.Ptr next) -> Some (x, next)
      | _ -> None)

let pack_node v next = Value.pair (Value.int v) (Value.ptr next)

(* Walk the physical list from [top]; [None] if it is broken or cyclic. *)
let list_from joint top =
  let rec go seen p acc =
    if Ptr.is_null p then Some (List.rev acc)
    else if List.exists (Ptr.equal p) seen then None
    else
      match node_of joint p with
      | Some (v, next) -> go (p :: seen) next ((p, v) :: acc)
      | None -> None
  in
  go [] top []

let top_of joint = Option.bind (Heap.find top_cell joint) Value.as_ptr

let contents joint =
  Option.bind (top_of joint) (fun t ->
      Option.map (List.map snd) (list_from joint t))

(* Replay a history from the empty stack, checking LIFO legality.
   Returns the final abstract contents. *)
let replay total =
  let rec go ts stack =
    if ts > Hist.last_ts total then Some stack
    else
      match Hist.find ts total with
      | None -> None
      | Some e -> (
        match (e.Hist.op, decode_stack e.Hist.state) with
        | "push", Some st' ->
          if st' = (match Value.as_int e.Hist.arg with
                    | Some v -> v :: stack
                    | None -> [ -1 ])
          then go (ts + 1) st'
          else None
        | "pop", Some st' -> (
          match (stack, Value.as_int e.Hist.res) with
          | v :: rest, Some r when v = r && st' = rest -> go (ts + 1) st'
          | _ -> None)
        | _ -> None)
  in
  if Hist.continuous total then go 1 [] else None

let hist_of a = Aux.as_hist a
(*!Conc*)

(* Coherence: [top] heads a well-formed null-terminated list; the
   combined history is a legal LIFO run from the empty stack whose final
   contents are exactly the physical list.  Non-list cells in the joint
   heap are retired garbage. *)
let coh s =
  match
    (contents (Slice.joint s), hist_of (Slice.self s), hist_of (Slice.other s))
  with
  | Some phys, Some hs, Some ho -> (
    Slice.valid s
    &&
    match Hist.join hs ho with
    | Some total -> (
      match replay total with
      | Some abstract -> abstract = phys
      | None -> false)
    | None -> false)
  | _ -> false

(* Environment push: a new node (from the reserved env pool) swung onto
   the stack — an external transition acquiring heap from the
   environment's private state. *)
let push_tr : Concurroid.transition =
  Concurroid.external_ ~name:"push" (fun s ->
      match
        ( top_of (Slice.joint s), contents (Slice.joint s),
          hist_of (Slice.self s), hist_of (Slice.other s) )
      with
      | Some top, Some phys, Some hs, Some ho ->
        let ts =
          match Hist.join hs ho with
          | Some total -> Hist.last_ts total + 1
          | None -> -1
        in
        if ts < 0 then []
        else
          List.concat_map
            (fun p ->
              if Heap.mem p (Slice.joint s) then []
              else
                List.map
                  (fun v ->
                    let entry =
                      Hist.entry ~arg:(Value.int v)
                        ~state:(encode_stack (v :: phys))
                        "push"
                    in
                    s
                    |> Slice.with_joint
                         (Heap.add p (pack_node v top)
                            (Heap.update top_cell (Value.ptr p) (Slice.joint s)))
                    |> Slice.with_self (Aux.hist (Hist.add ts entry hs)))
                  [ 0; 1 ])
            env_node_cells
      | _ -> [])

(* Pop: unlink the top node; the node remains in the joint heap as
   garbage (internal transition, footprint preserved). *)
let pop_tr : Concurroid.transition =
  Concurroid.internal ~name:"pop" (fun s ->
      match
        ( top_of (Slice.joint s), hist_of (Slice.self s),
          hist_of (Slice.other s) )
      with
      | Some top, Some hs, Some ho when not (Ptr.is_null top) -> (
        match (node_of (Slice.joint s) top, contents (Slice.joint s)) with
        | Some (v, next), Some (_ :: rest) ->
          let ts =
            match Hist.join hs ho with
            | Some total -> Hist.last_ts total + 1
            | None -> -1
          in
          if ts < 0 then []
          else
            let entry =
              Hist.entry ~res:(Value.int v) ~state:(encode_stack rest) "pop"
            in
            [
              s
              |> Slice.with_joint
                   (Heap.update top_cell (Value.ptr next) (Slice.joint s))
              |> Slice.with_self (Aux.hist (Hist.add ts entry hs));
            ]
        | _ -> [])
      | _ -> [])

(* Enumeration: runs of up to [depth] push/pop transitions from the
   empty stack, with every history split. *)
let enum ?(depth = 2) () =
  let base =
    Slice.make ~self:(Aux.hist Hist.empty)
      ~joint:(Heap.singleton top_cell (Value.ptr Ptr.null))
      ~other:(Aux.hist Hist.empty)
  in
  let rec run k frontier acc =
    if k = 0 then acc
    else
      let next =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun tr -> tr.Concurroid.tr_step s)
              [ push_tr; pop_tr ])
          frontier
      in
      run (k - 1) next (next @ acc)
  in
  let reachable = base :: run depth [ base ] [] in
  List.concat_map
    (fun s ->
      match hist_of (Slice.self s) with
      | Some h ->
        List.filter_map
          (fun (a, b) ->
            match (Aux.as_hist a, Aux.as_hist b) with
            | Some ha, Some hb ->
              Some
                (s |> Slice.with_self (Aux.hist ha)
               |> Slice.with_other (Aux.hist hb))
            | _ -> None)
          (Aux.splits (Aux.hist h))
      | None -> [])
    reachable

let concurroid ?(depth = 2) label =
  Concurroid.make ~label ~name:"Treiber" ~coh
    ~transitions:[ push_tr; pop_tr ]
    ~enum:(fun () -> enum ~depth ())
    ()
(*!Acts*)

(* read_top: idle. *)
let read_top tb : Ptr.t Action.t =
  Action.make ~name:(fun () -> "read_top") ~fp:(Footprint.reads tb)
    ~safe:(fun st ->
      match State.find tb st with
      | Some s -> Option.is_some (top_of (Slice.joint s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn tb st in
      (Option.get (top_of (Slice.joint s)), st))
    ~phys:(fun _ -> Action.Read top_cell)
    ()

(* read_top_nonempty: the blocking variant used by consumers that wait
   for an element. *)
let read_top_nonempty tb : Ptr.t Action.t =
  Action.make ~name:(fun () -> "read_top_nonempty") ~fp:(Footprint.reads tb)
    ~enabled:(fun st ->
      match State.find tb st with
      | Some s -> (
        match top_of (Slice.joint s) with
        | Some t -> not (Ptr.is_null t)
        | None -> true)
      | None -> true)
    ~safe:(fun st ->
      match State.find tb st with
      | Some s -> Option.is_some (top_of (Slice.joint s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn tb st in
      (Option.get (top_of (Slice.joint s)), st))
    ~phys:(fun _ -> Action.Read top_cell)
    ()

(* read_node: idle; nodes are never deallocated, so reading a retired
   node is safe (that is exactly why Treiber's stack tolerates stale
   pointers). *)
let read_node tb p : (int * Ptr.t) Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "read_node(%a)" Ptr.pp p)
    ~fp:(Footprint.reads tb)
    ~safe:(fun st ->
      match State.find tb st with
      | Some s -> Option.is_some (node_of (Slice.joint s) p)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn tb st in
      (Option.get (node_of (Slice.joint s) p), st))
    ~phys:(fun _ -> Action.Read p)
    ()

(* set_node: prepare a private cell as a node (a write to the thread's
   own heap — Priv business, invisible to the stack protocol). *)
let set_node pv p v next : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "set_node(%a)" Ptr.pp p)
    ~fp:(Footprint.writes pv)
    ~safe:(fun st ->
      match Aux.as_heap (State.self pv st) with
      | Some h -> Heap.mem p h
      | None -> false)
    ~step:(fun st ->
      let h = Option.get (Aux.as_heap (State.self pv st)) in
      ((), State.with_self pv (Aux.heap (Heap.update p (pack_node v next) h)) st))
    ~phys:(fun _ -> Action.Write (p, pack_node v next))
    ()

(* cas_push: the publishing CAS.  On success the node cell migrates from
   the thread's private heap into the stack's joint heap (communicating
   action) and the push is stamped into the thread's history. *)
let cas_push tb pv p v expected : bool Action.t =
  Action.make ~communicating:true
    ~name:(fun () -> Fmt.str "cas_push(%a)" Ptr.pp p)
    ~fp:
      (Footprint.of_list
         [ (tb, [ Footprint.Read; Write; Cas ]); (pv, [ Footprint.Read; Write ]) ])
    ~safe:(fun st ->
      match (State.find tb st, Aux.as_heap (State.self pv st)) with
      | Some s, Some priv -> (
        Option.is_some (top_of (Slice.joint s))
        && Heap.mem p priv
        && (match Heap.find p priv with
           | Some cell -> Value.equal cell (pack_node v expected)
           | None -> false)
        && Option.is_some (hist_of (Slice.self s))
        && Option.is_some (hist_of (Slice.other s)))
      | _ -> false)
    ~step:(fun st ->
      let s = State.find_exn tb st in
      let top = Option.get (top_of (Slice.joint s)) in
      if not (Ptr.equal top expected) then (false, st)
      else
        let priv = Option.get (Aux.as_heap (State.self pv st)) in
        let phys = Option.value (contents (Slice.joint s)) ~default:[] in
        let hs = Option.get (hist_of (Slice.self s)) in
        let ho = Option.get (hist_of (Slice.other s)) in
        let ts = Hist.last_ts (Hist.join_exn hs ho) + 1 in
        let entry =
          Hist.entry ~arg:(Value.int v) ~state:(encode_stack (v :: phys)) "push"
        in
        let s' =
          s
          |> Slice.with_joint
               (Heap.add p (pack_node v expected)
                  (Heap.update top_cell (Value.ptr p) (Slice.joint s)))
          |> Slice.with_self (Aux.hist (Hist.add ts entry hs))
        in
        let st =
          st |> State.add tb s'
          |> State.with_self pv (Aux.heap (Heap.free p priv))
        in
        (true, st))
    ~phys:(fun _ ->
      Action.Cas
        { loc = top_cell; expect = Value.ptr expected; replace = Value.ptr p })
    ()

(* cas_pop: unlink the expected top node; it stays in the joint heap as
   garbage; the pop is stamped. *)
let cas_pop tb expected next : bool Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "cas_pop(%a)" Ptr.pp expected)
    ~fp:(Footprint.of_list [ (tb, [ Footprint.Read; Write; Cas ]) ])
    ~safe:(fun st ->
      match State.find tb st with
      | Some s ->
        Option.is_some (top_of (Slice.joint s))
        && Option.is_some (node_of (Slice.joint s) expected)
        && Option.is_some (hist_of (Slice.self s))
        && Option.is_some (hist_of (Slice.other s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn tb st in
      let top = Option.get (top_of (Slice.joint s)) in
      if not (Ptr.equal top expected) then (false, st)
      else
        let v, _ = Option.get (node_of (Slice.joint s) expected) in
        let phys = Option.value (contents (Slice.joint s)) ~default:[] in
        let rest = match phys with [] -> [] | _ :: r -> r in
        let hs = Option.get (hist_of (Slice.self s)) in
        let ho = Option.get (hist_of (Slice.other s)) in
        let ts = Hist.last_ts (Hist.join_exn hs ho) + 1 in
        let entry =
          Hist.entry ~res:(Value.int v) ~state:(encode_stack rest) "pop"
        in
        let s' =
          s
          |> Slice.with_joint
               (Heap.update top_cell (Value.ptr next) (Slice.joint s))
          |> Slice.with_self (Aux.hist (Hist.add ts entry hs))
        in
        (true, State.add tb s' st))
    ~phys:(fun _ ->
      Action.Cas
        {
          loc = top_cell;
          expect = Value.ptr expected;
          replace = Value.ptr next;
        })
    ()
(*!Stab*)

(* Retired and live nodes are never mutated or removed: any published
   node's contents are stable. *)
let assert_node_pinned tb p (v, next) st =
  match State.find tb st with
  | Some s -> (
    match node_of (Slice.joint s) p with
    | Some (v', next') -> v = v' && Ptr.equal next next'
    | None -> false)
  | None -> false

(* My stamped entries remain in the combined history forever. *)
let assert_hist_owned tb h0 st =
  match State.find tb st with
  | Some s -> (
    match hist_of (Slice.self s) with
    | Some hs -> Hist.subhist h0 hs
    | None -> false)
  | None -> false

(* History timestamps only grow. *)
let assert_ts_at_least tb n st =
  match State.find tb st with
  | Some s -> (
    match (hist_of (Slice.self s), hist_of (Slice.other s)) with
    | Some hs, Some ho -> (
      match Hist.join hs ho with
      | Some total -> Hist.last_ts total >= n
      | None -> false)
    | _ -> false)
  | None -> false
(*!Main*)

(* push: retry loop re-reading the top and re-pointing the private node
   until the CAS lands.  Retries are bounded by interference (the CAS
   only fails when somebody else succeeded) — the lock-free progress
   property, visible here as bounded exploration. *)
let push tb pv p v : unit Prog.t =
  let open Prog in
  Prog.ffix
    (fun loop () ->
      let* t = act (read_top tb) in
      let* () = act (set_node pv p v t) in
      let* ok = act (cas_push tb pv p v t) in
      if ok then ret () else loop ())
    ()

(* pop: retry loop; [None] on an empty stack. *)
let pop tb : int option Prog.t =
  let open Prog in
  Prog.ffix
    (fun loop () ->
      let* t = act (read_top tb) in
      if Ptr.is_null t then ret None
      else
        let* _, next = act (read_node tb t) in
        let* ok = act (cas_pop tb t next) in
        if ok then
          let* v, _ = act (read_node tb t) in
          ret (Some v)
        else loop ())
    ()

(* pop_wait: block (rather than return None) while the stack is empty —
   the consumer side of the producer/consumer client. *)
let pop_wait tb : int Prog.t =
  let open Prog in
  Prog.ffix
    (fun loop () ->
      let* t = act (read_top_nonempty tb) in
      if Ptr.is_null t then loop ()
      else
        let* _, next = act (read_node tb t) in
        let* ok = act (cas_pop tb t next) in
        if ok then
          let* v, _ = act (read_node tb t) in
          ret v
        else loop ())
    ()

(* Specs: subjective histories.  A thread that pushed owns exactly the
   new entry; the entry is stamped after everything in the initial
   history. *)

let self_hist tb st =
  match State.find tb st with
  | Some s -> Option.value (hist_of (Slice.self s)) ~default:Hist.empty
  | None -> Hist.empty

let total_hist tb st =
  match State.find tb st with
  | Some s -> (
    match (hist_of (Slice.self s), hist_of (Slice.other s)) with
    | Some hs, Some ho -> Option.value (Hist.join hs ho) ~default:Hist.empty
    | _ -> Hist.empty)
  | None -> Hist.empty

let push_spec tb pv p v : unit Spec.t =
  Spec.make
    ~name:(Fmt.str "push(%a,%d)" Ptr.pp p v)
    ~pre:(fun st ->
      Hist.is_empty (self_hist tb st)
      && (match Aux.as_heap (State.self pv st) with
         | Some h -> Heap.mem p h
         | None -> false))
    ~post:(fun () i f ->
      let hi = total_hist tb i in
      let hs = self_hist tb f in
      Hist.cardinal hs = 1
      && List.for_all
           (fun (ts, e) ->
             ts > Hist.last_ts hi
             && String.equal e.Hist.op "push"
             && Value.equal e.Hist.arg (Value.int v))
           (Hist.bindings hs)
      &&
      match Aux.as_heap (State.self pv f) with
      | Some h -> not (Heap.mem p h)
      | None -> false)

let pop_spec tb : int option Spec.t =
  Spec.make ~name:"pop"
    ~pre:(fun st -> Hist.is_empty (self_hist tb st))
    ~post:(fun r i f ->
      let hi = total_hist tb i in
      let hs = self_hist tb f in
      match r with
      | None -> Hist.is_empty hs
      | Some v ->
        Hist.cardinal hs = 1
        && List.for_all
             (fun (ts, e) ->
               ts > Hist.last_ts hi
               && String.equal e.Hist.op "pop"
               && Value.equal e.Hist.res (Value.int v))
             (Hist.bindings hs))

(* Verification drivers. *)

let tb_label = Label.make "treiber"
let pv_label = Label.make "treiber_priv"

(* Private heaps holding candidate node cells. *)
let priv_enum () =
  let cells = List.map Ptr.of_int [ 95; 96 ] in
  List.map
    (fun sub ->
      let h =
        List.fold_left (fun h p -> Heap.add p (Value.int 0) h) Heap.empty sub
      in
      Slice.make ~self:(Aux.heap h) ~joint:Heap.empty
        ~other:(Aux.heap Heap.empty))
    [ []; [ List.nth cells 0 ]; cells ]

let world ?(depth = 2) () =
  World.of_list
    [ Priv.make ~enum:priv_enum pv_label; concurroid ~depth tb_label ]

let init_states ?(depth = 1) () =
  List.concat_map
    (fun ts ->
      List.map
        (fun ps ->
          State.empty |> State.add tb_label ts |> State.add pv_label ps)
        (priv_enum ()))
    (enum ~depth ())

let node1 = Ptr.of_int 95
let node2 = Ptr.of_int 96

let verify ?(fuel = 20) ?(env_budget = 2) ?(max_outcomes = 400_000) () :
    Verify.report list =
  let w = world () in
  let init = init_states () in
  [
    Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
      (push tb_label pv_label node1 1)
      (push_spec tb_label pv_label node1 1);
    Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
      (pop tb_label) (pop_spec tb_label);
  ]

(* push || pop: the history stamps compose. *)
let verify_push_pop ?(fuel = 24) ?(env_budget = 1) ?(max_outcomes = 400_000) ()
    : Verify.report =
  let w = world () in
  let init = init_states () in
  let spec =
    Spec.make ~name:"push || pop"
      ~pre:(fun st ->
        Hist.is_empty (self_hist tb_label st)
        &&
        match Aux.as_heap (State.self pv_label st) with
        | Some h -> Heap.mem node1 h
        | None -> false)
      ~post:(fun ((), r) _i f ->
        let hs = self_hist tb_label f in
        let pushes =
          List.filter (fun e -> String.equal e.Hist.op "push") (Hist.entries hs)
        in
        let pops =
          List.filter (fun e -> String.equal e.Hist.op "pop") (Hist.entries hs)
        in
        List.length pushes = 1
        && List.length pops = (match r with Some _ -> 1 | None -> 0))
  in
  Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
    (Prog.par_split
       (Prog.split_cells ~pv:pv_label ~to_left:[ node1 ] ~to_right:[])
       (push tb_label pv_label node1 1)
       (pop tb_label))
    spec
(*!End*)
