(* The flat combiner of Hendler et al. (paper, Section 4.2, Table 1 row
   "Flat combiner"): a universal construction turning a sequential
   object into a concurrent one.  Threads publish requests into
   per-thread slots; whichever thread acquires the combiner lock
   executes *all* pending requests — the helping pattern: a thread's
   operation may be performed by another thread, yet its effect is
   ascribed to the requester.

   Ascription works exactly as in FCSL: the combiner stamps the helped
   operation's history entry into a *joint auxiliary* pending map (one
   cell per slot); the requester later claims the entry into its own
   [self] history.  Slot ownership is a token (the slot pointer) in the
   owner's self, so nobody can claim somebody else's effect.

   The construction is generic over a sequential object [seq_object];
   [Fc_stack] instantiates it with a stack, obtaining the same
   subjective-history spec as the Treiber stack. *)

open Fcsl_heap
open Fcsl_core
module Aux = Fcsl_pcm.Aux
module Mutex = Fcsl_pcm.Instances.Mutex
module Hist = Fcsl_pcm.Hist

(*!Libs*)
(* The sequential object a flat combiner wraps. *)
type seq_object = {
  so_name : string;
  so_init : Value.t; (* initial abstract state *)
  so_apply : string -> Value.t -> Value.t -> (Value.t * Value.t) option;
      (* op -> arg -> state -> (result, new state) *)
  so_ops : (string * Value.t list) list; (* operation/argument universe *)
}

type config = {
  lk : Ptr.t; (* combiner lock bit *)
  slots : Ptr.t list; (* request slots, one per client thread *)
  obj : Ptr.t; (* the sequential object's state cell *)
}

let default_config =
  {
    lk = Ptr.of_int 120;
    slots = [ Ptr.of_int 121; Ptr.of_int 122 ];
    obj = Ptr.of_int 123;
  }

(* Slot cell encoding. *)
let slot_empty = Value.int 0
let slot_request code arg = Value.triple (Value.int 1) (Value.int code) arg
let slot_done res = Value.pair (Value.int 2) res

let decode_slot v =
  match v with
  | Value.Int 0 -> Some `Empty
  | Value.Triple (Value.Int 1, Value.Int code, arg) -> Some (`Request (code, arg))
  | Value.Pair (Value.Int 2, res) -> Some (`Done res)
  | _ -> None

let op_code so op =
  let rec go i = function
    | [] -> None
    | (o, _) :: rest -> if String.equal o op then Some i else go (i + 1) rest
  in
  go 0 so.so_ops

let op_of_code so code = Option.map fst (List.nth_opt so.so_ops code)

(* Ghost projections: self = (mutex, (slot tokens, history)). *)
let split_aux a =
  match Aux.as_pair a with
  | Some (m, rest) -> (
    match (Aux.as_mutex m, Aux.as_pair rest) with
    | Some mx, Some (t, h) -> (
      match (Aux.as_set t, Aux.as_hist h) with
      | Some tokens, Some hist -> Some (mx, tokens, hist)
      | _ -> None)
    | _ -> None)
  | None -> None

let pack_aux mx tokens hist =
  Aux.pair (Aux.Mutex mx) (Aux.pair (Aux.set tokens) (Aux.hist hist))

(* Joint auxiliary: the pending map, one history per slot. *)
let rec pendings_of cfg jaux =
  ignore cfg;
  match jaux with
  | Aux.Unit -> Some []
  | Aux.Pair (Aux.Hist h, rest) ->
    Option.map (fun r -> h :: r) (pendings_of cfg rest)
  | Aux.Hist h -> Some [ h ]
  | _ -> None

let pack_pendings hs =
  List.fold_right (fun h acc -> Aux.pair (Aux.hist h) acc) hs Aux.Unit

let pending_at cfg jaux i =
  Option.bind (pendings_of cfg jaux) (fun ps -> List.nth_opt ps i)

let set_pending cfg jaux i h =
  Option.map
    (fun ps -> pack_pendings (List.mapi (fun j p -> if j = i then h else p) ps))
    (pendings_of cfg jaux)

let lock_bit cfg joint = Option.bind (Heap.find cfg.lk joint) Value.as_bool

let slot_state cfg joint i =
  Option.bind
    (Option.bind (List.nth_opt cfg.slots i) (fun p -> Heap.find p joint))
    decode_slot

let obj_state cfg joint = Heap.find cfg.obj joint

(* Replay the combined history through the sequential object. *)
let replay so total =
  let rec go ts state =
    if ts > Hist.last_ts total then Some state
    else
      match Hist.find ts total with
      | None -> None
      | Some e -> (
        match so.so_apply e.Hist.op e.Hist.arg state with
        | Some (res, state') when Value.equal res e.Hist.res
                                  && Value.equal state' e.Hist.state ->
          go (ts + 1) state'
        | Some _ | None -> None)
  in
  if Hist.continuous total then go 1 so.so_init else None
(*!Conc*)

(* Coherence. *)
let coh so cfg s =
  match
    ( lock_bit cfg (Slice.joint s), obj_state cfg (Slice.joint s),
      split_aux (Slice.self s), split_aux (Slice.other s),
      pendings_of cfg (Slice.jaux s) )
  with
  | Some b, Some obj, Some (ms, ts, hs), Some (mo, tos, hos), Some pendings
    -> (
    Slice.valid s
    && List.length pendings = List.length cfg.slots
    && b = (ms = Mutex.Own || mo = Mutex.Own)
    (* every slot token is owned by exactly one side *)
    && Ptr.Set.equal (Ptr.Set.union ts tos) (Ptr.Set.of_list cfg.slots)
    && Ptr.Set.is_empty (Ptr.Set.inter ts tos)
    (* pending entries: at most one per slot, matching the slot cell *)
    && List.for_all2
         (fun i p ->
           Hist.cardinal p <= 1
           &&
           match slot_state cfg (Slice.joint s) i with
           | Some (`Done res) -> (
             match Hist.entries p with
             | [ e ] -> Value.equal e.Hist.res res
             | _ -> false)
           | Some (`Request _) ->
             (* applied-but-unresponded only exists while combining *)
             if b then Hist.cardinal p <= 1 else Hist.is_empty p
           | Some `Empty -> Hist.is_empty p
           | None -> false)
         (List.init (List.length cfg.slots) Fun.id)
         pendings
    &&
    (* the combined history replays to the current object state *)
    match
      List.fold_left
        (fun acc p -> Option.bind acc (Hist.join p))
        (Hist.join hs hos) pendings
    with
    | Some total -> (
      match replay so total with
      | Some state -> Value.equal state obj
      | None -> false)
    | None -> false)
  | _ -> false

(* Transitions. *)

let fresh_ts cfg s =
  match
    (split_aux (Slice.self s), split_aux (Slice.other s),
     pendings_of cfg (Slice.jaux s))
  with
  | Some (_, _, hs), Some (_, _, hos), Some pendings -> (
    match
      List.fold_left
        (fun acc p -> Option.bind acc (Hist.join p))
        (Hist.join hs hos) pendings
    with
    | Some total -> Some (Hist.last_ts total + 1)
    | None -> None)
  | _ -> None

(* publish: a token holder posts a request into its empty slot. *)
let publish_tr so cfg : Concurroid.transition =
  Concurroid.internal ~name:"publish" (fun s ->
      match split_aux (Slice.self s) with
      | Some (_, tokens, _) ->
        List.concat_map
          (fun i ->
            let slot = List.nth cfg.slots i in
            if
              Ptr.Set.mem slot tokens
              && slot_state cfg (Slice.joint s) i = Some `Empty
            then
              List.concat_map
                (fun (op, args) ->
                  match op_code so op with
                  | None -> []
                  | Some code ->
                    List.map
                      (fun arg ->
                        Slice.with_joint
                          (Heap.update slot (slot_request code arg)
                             (Slice.joint s))
                          s)
                      args)
                so.so_ops
            else [])
          (List.init (List.length cfg.slots) Fun.id)
      | None -> [])

let lock_tr cfg : Concurroid.transition =
  Concurroid.internal ~name:"fc_lock" (fun s ->
      match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
      | Some false, Some (Mutex.Not_own, tokens, hist) ->
        [
          s
          |> Slice.with_joint
               (Heap.update cfg.lk (Value.bool true) (Slice.joint s))
          |> Slice.with_self (pack_aux Mutex.Own tokens hist);
        ]
      | _ -> [])

(* A combiner may release only once its pass is finished: no slot is
   applied-but-unresponded. *)
let pass_finished cfg s =
  List.for_all
    (fun i ->
      match (slot_state cfg (Slice.joint s) i, pending_at cfg (Slice.jaux s) i) with
      | Some (`Request _), Some p -> Hist.is_empty p
      | Some (`Done _), Some p -> Hist.cardinal p = 1
      | Some `Empty, Some p -> Hist.is_empty p
      | _ -> false)
    (List.init (List.length cfg.slots) Fun.id)

let unlock_tr cfg : Concurroid.transition =
  Concurroid.internal ~name:"fc_unlock" (fun s ->
      match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
      | Some true, Some (Mutex.Own, tokens, hist) when pass_finished cfg s ->
        [
          s
          |> Slice.with_joint
               (Heap.update cfg.lk (Value.bool false) (Slice.joint s))
          |> Slice.with_self (pack_aux Mutex.Not_own tokens hist);
        ]
      | _ -> [])

(* apply: the combiner executes a pending request — the linearization
   point; the entry is stamped into the slot's pending cell. *)
let apply_tr so cfg : Concurroid.transition =
  Concurroid.internal ~name:"fc_apply" (fun s ->
      match (split_aux (Slice.self s), obj_state cfg (Slice.joint s)) with
      | Some (Mutex.Own, _, _), Some obj ->
        List.filter_map
          (fun i ->
            match
              (slot_state cfg (Slice.joint s) i,
               pending_at cfg (Slice.jaux s) i, fresh_ts cfg s)
            with
            | Some (`Request (code, arg)), Some pending, Some ts
              when Hist.is_empty pending -> (
              match op_of_code so code with
              | None -> None
              | Some op -> (
                match so.so_apply op arg obj with
                | None -> None
                | Some (res, state') ->
                  let entry = Hist.entry ~arg ~res ~state:state' op in
                  Option.map
                    (fun jaux ->
                      s
                      |> Slice.with_joint
                           (Heap.update cfg.obj state' (Slice.joint s))
                      |> Slice.with_jaux jaux)
                    (set_pending cfg (Slice.jaux s) i
                       (Hist.add ts entry Hist.empty))))
            | _ -> None)
          (List.init (List.length cfg.slots) Fun.id)
      | _ -> [])

(* respond: the combiner publishes the result into the slot. *)
let respond_tr cfg : Concurroid.transition =
  Concurroid.internal ~name:"fc_respond" (fun s ->
      match split_aux (Slice.self s) with
      | Some (Mutex.Own, _, _) ->
        List.filter_map
          (fun i ->
            match
              (slot_state cfg (Slice.joint s) i, pending_at cfg (Slice.jaux s) i)
            with
            | Some (`Request _), Some pending -> (
              match Hist.entries pending with
              | [ e ] ->
                Some
                  (Slice.with_joint
                     (Heap.update (List.nth cfg.slots i) (slot_done e.Hist.res)
                        (Slice.joint s))
                     s)
              | _ -> None)
            | _ -> None)
          (List.init (List.length cfg.slots) Fun.id)
      | _ -> [])

(* claim: the slot owner collects its result; the helped entry moves
   from the pending map into the owner's self history — the ascription
   step of the helping pattern. *)
let claim_tr cfg : Concurroid.transition =
  Concurroid.internal ~name:"fc_claim" (fun s ->
      match split_aux (Slice.self s) with
      | Some (mx, tokens, hist) ->
        List.filter_map
          (fun i ->
            let slot = List.nth cfg.slots i in
            match
              (slot_state cfg (Slice.joint s) i, pending_at cfg (Slice.jaux s) i)
            with
            | Some (`Done _), Some pending when Ptr.Set.mem slot tokens -> (
              match (Hist.bindings pending, Hist.join hist pending) with
              | [ _ ], Some hist' ->
                Option.map
                  (fun jaux ->
                    s
                    |> Slice.with_joint
                         (Heap.update slot slot_empty (Slice.joint s))
                    |> Slice.with_jaux jaux
                    |> Slice.with_self (pack_aux mx tokens hist'))
                  (set_pending cfg (Slice.jaux s) i Hist.empty)
              | _ -> None)
            | _ -> None)
          (List.init (List.length cfg.slots) Fun.id)
      | None -> [])

(* Enumeration: transition runs from the base state, with ghost splits
   (mutex-respecting, token subsets, history splits). *)
let base_slice so cfg =
  Slice.make_jaux
    ~self:(pack_aux Mutex.Not_own (Ptr.Set.of_list cfg.slots) Hist.empty)
    ~joint:
      (Heap.of_list
         ((cfg.lk, Value.bool false) :: (cfg.obj, so.so_init)
         :: List.map (fun p -> (p, slot_empty)) cfg.slots))
    ~jaux:(pack_pendings (List.map (fun _ -> Hist.empty) cfg.slots))
    ~other:(pack_aux Mutex.Not_own Ptr.Set.empty Hist.empty)

let transitions so cfg =
  [
    publish_tr so cfg; lock_tr cfg; unlock_tr cfg; apply_tr so cfg;
    respond_tr cfg; claim_tr cfg;
  ]

let enum so cfg ?(depth = 3) () =
  let rec run k frontier acc =
    if k = 0 then acc
    else
      let next =
        List.concat_map
          (fun s ->
            List.concat_map
              (fun tr -> tr.Concurroid.tr_step s)
              (transitions so cfg))
          frontier
      in
      run (k - 1) next (next @ acc)
  in
  let reachable = base_slice so cfg :: run depth [ base_slice so cfg ] [] in
  (* split the reachable selves between self and other *)
  List.concat_map
    (fun s ->
      List.filter_map
        (fun (a, b) ->
          match Aux.join b (Slice.other s) with
          | Some other -> Some (s |> Slice.with_self a |> Slice.with_other other)
          | None -> None)
        (Aux.splits (Slice.self s)))
    reachable

let concurroid so cfg ?(depth = 3) label =
  Concurroid.make ~label ~name:"FlatCombine" ~coh:(coh so cfg)
    ~lock:
      {
        Concurroid.li_held =
          (fun s ->
            match split_aux (Slice.self s) with
            | Some (Mutex.Own, _, _) -> true
            | Some ((Mutex.Not_own : Mutex.t), _, _) | None -> false);
        li_acquires = [ "fc_try_lock" ];
        li_releases = [ "fc_unlock" ];
      }
    ~transitions:(transitions so cfg)
    ~enum:(fun () -> enum so cfg ~depth ())
    ()
(*!Acts*)

let find_slice fc st = State.find fc st

(* publish_act: post my request (erases to a slot write). *)
let publish_act so cfg fc ~slot op arg : unit Action.t =
  let slot_ptr = List.nth cfg.slots slot in
  Action.make
    ~name:(fun () -> Fmt.str "fc_publish(%d,%s)" slot op)
    ~fp:(Footprint.writes fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match split_aux (Slice.self s) with
        | Some (_, tokens, _) ->
          Ptr.Set.mem slot_ptr tokens
          && slot_state cfg (Slice.joint s) slot = Some `Empty
          && Option.is_some (op_code so op)
        | None -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      let code = Option.get (op_code so op) in
      ( (),
        State.add fc
          (Slice.with_joint
             (Heap.update slot_ptr (slot_request code arg) (Slice.joint s))
             s)
          st ))
    ~phys:(fun _ ->
      Action.Write (slot_ptr, slot_request (Option.value (op_code so op) ~default:0) arg))
    ()

(* poll: read my slot; blocks until either my result is ready or the
   combiner lock is free (so progress is always possible). *)
let poll_act cfg fc ~slot : [ `Done of Value.t | `Pending ] Action.t =
  let slot_ptr = List.nth cfg.slots slot in
  Action.make
    ~name:(fun () -> Fmt.str "fc_poll(%d)" slot)
    ~fp:(Footprint.reads fc)
    ~enabled:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match (slot_state cfg (Slice.joint s) slot, lock_bit cfg (Slice.joint s)) with
        | Some (`Done _), _ -> true
        | _, Some false -> true
        | _ -> false)
      | None -> true)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> Option.is_some (slot_state cfg (Slice.joint s) slot)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      match slot_state cfg (Slice.joint s) slot with
      | Some (`Done res) -> (`Done res, st)
      | _ -> (`Pending, st))
    ~phys:(fun _ -> Action.Read slot_ptr)
    ()

(* try_lock / unlock. *)
let try_lock_act cfg fc : bool Action.t =
  Action.make ~name:(fun () -> "fc_try_lock") ~fp:(Footprint.cases fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s ->
        Option.is_some (lock_bit cfg (Slice.joint s))
        && Option.is_some (split_aux (Slice.self s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
      | Some true, _ -> (false, st)
      | Some false, Some (_, tokens, hist) ->
        ( true,
          State.add fc
            (s
            |> Slice.with_joint
                 (Heap.update cfg.lk (Value.bool true) (Slice.joint s))
            |> Slice.with_self (pack_aux Mutex.Own tokens hist))
            st )
      | _ -> assert false)
    ~phys:(fun _ ->
      Action.Cas
        { loc = cfg.lk; expect = Value.bool false; replace = Value.bool true })
    ()

let unlock_act cfg fc : unit Action.t =
  Action.make ~name:(fun () -> "fc_unlock") ~fp:(Footprint.writes fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match (lock_bit cfg (Slice.joint s), split_aux (Slice.self s)) with
        | Some true, Some (Mutex.Own, _, _) -> pass_finished cfg s
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      let _, tokens, hist = Option.get (split_aux (Slice.self s)) in
      ( (),
        State.add fc
          (s
          |> Slice.with_joint
               (Heap.update cfg.lk (Value.bool false) (Slice.joint s))
          |> Slice.with_self (pack_aux Mutex.Not_own tokens hist))
          st ))
    ~phys:(fun _ -> Action.Write (cfg.lk, Value.bool false))
    ()

(* read_slot (combiner side): idle. *)
let read_slot_act cfg fc i :
    [ `Empty | `Request of int * Value.t | `Done of Value.t ] Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "fc_read_slot(%d)" i)
    ~fp:(Footprint.reads fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> Option.is_some (slot_state cfg (Slice.joint s) i)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      (Option.get (slot_state cfg (Slice.joint s) i), st))
    ~phys:(fun _ -> Action.Read (List.nth cfg.slots i))
    ()

(* apply_act: execute slot [i]'s request on the object (the helped
   linearization point); erases to the object-cell write. *)
let apply_act so cfg fc i : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "fc_apply(%d)" i)
    ~fp:(Footprint.writes fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match
          ( split_aux (Slice.self s), slot_state cfg (Slice.joint s) i,
            pending_at cfg (Slice.jaux s) i, obj_state cfg (Slice.joint s),
            fresh_ts cfg s )
        with
        | Some (Mutex.Own, _, _), Some (`Request (code, arg)), Some pending,
          Some obj, Some _ -> (
          Hist.is_empty pending
          &&
          match op_of_code so code with
          | Some op -> Option.is_some (so.so_apply op arg obj)
          | None -> false)
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      let (`Request (code, arg)) =
        match slot_state cfg (Slice.joint s) i with
        | Some (`Request _ as r) -> r
        | _ -> assert false
      in
      let op = Option.get (op_of_code so code) in
      let obj = Option.get (obj_state cfg (Slice.joint s)) in
      let res, state' = Option.get (so.so_apply op arg obj) in
      let ts = Option.get (fresh_ts cfg s) in
      let entry = Hist.entry ~arg ~res ~state:state' op in
      let jaux =
        Option.get
          (set_pending cfg (Slice.jaux s) i (Hist.add ts entry Hist.empty))
      in
      ( (),
        State.add fc
          (s
          |> Slice.with_joint (Heap.update cfg.obj state' (Slice.joint s))
          |> Slice.with_jaux jaux)
          st ))
    ~phys:(fun st ->
      let s = State.find_exn fc st in
      match slot_state cfg (Slice.joint s) i with
      | Some (`Request (code, arg)) ->
        let op = Option.get (op_of_code so code) in
        let obj = Option.get (obj_state cfg (Slice.joint s)) in
        let _, state' = Option.get (so.so_apply op arg obj) in
        Action.Write (cfg.obj, state')
      | _ -> Action.Id)
    ()

(* respond_act: write the pending result into the slot. *)
let respond_act cfg fc i : unit Action.t =
  Action.make
    ~name:(fun () -> Fmt.str "fc_respond(%d)" i)
    ~fp:(Footprint.writes fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match
          (split_aux (Slice.self s), slot_state cfg (Slice.joint s) i,
           pending_at cfg (Slice.jaux s) i)
        with
        | Some (Mutex.Own, _, _), Some (`Request _), Some pending ->
          Hist.cardinal pending = 1
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      let pending = Option.get (pending_at cfg (Slice.jaux s) i) in
      let e = List.hd (Hist.entries pending) in
      ( (),
        State.add fc
          (Slice.with_joint
             (Heap.update (List.nth cfg.slots i) (slot_done e.Hist.res)
                (Slice.joint s))
             s)
          st ))
    ~phys:(fun st ->
      let s = State.find_exn fc st in
      let pending = Option.get (pending_at cfg (Slice.jaux s) i) in
      match Hist.entries pending with
      | [ e ] -> Action.Write (List.nth cfg.slots i, slot_done e.Hist.res)
      | _ -> Action.Id)
    ()

(* claim_act: collect my result and the ascribed history entry. *)
let claim_act cfg fc ~slot : Value.t Action.t =
  let slot_ptr = List.nth cfg.slots slot in
  Action.make
    ~name:(fun () -> Fmt.str "fc_claim(%d)" slot)
    ~fp:(Footprint.writes fc)
    ~safe:(fun st ->
      match find_slice fc st with
      | Some s -> (
        match
          (split_aux (Slice.self s), slot_state cfg (Slice.joint s) slot,
           pending_at cfg (Slice.jaux s) slot)
        with
        | Some (_, tokens, _), Some (`Done _), Some pending ->
          Ptr.Set.mem slot_ptr tokens && Hist.cardinal pending = 1
        | _ -> false)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn fc st in
      let mx, tokens, hist = Option.get (split_aux (Slice.self s)) in
      let pending = Option.get (pending_at cfg (Slice.jaux s) slot) in
      let res =
        match slot_state cfg (Slice.joint s) slot with
        | Some (`Done r) -> r
        | _ -> assert false
      in
      let jaux = Option.get (set_pending cfg (Slice.jaux s) slot Hist.empty) in
      ( res,
        State.add fc
          (s
          |> Slice.with_joint (Heap.update slot_ptr slot_empty (Slice.joint s))
          |> Slice.with_jaux jaux
          |> Slice.with_self
               (pack_aux mx tokens (Hist.join_exn hist pending)))
          st ))
    ~phys:(fun _ -> Action.Write (slot_ptr, slot_empty))
    ()
(*!Stab*)

(* My slot token is mine forever. *)
let assert_token fc cfg ~slot st =
  match State.find fc st with
  | Some s -> (
    match split_aux (Slice.self s) with
    | Some (_, tokens, _) -> Ptr.Set.mem (List.nth cfg.slots slot) tokens
    | None -> false)
  | None -> false

(* Once my slot is Done with my pending entry, nobody else can take it:
   Done(res) with a pending entry stays until I claim. *)
let assert_done_preserved fc cfg ~slot res st =
  match State.find fc st with
  | Some s -> (
    match slot_state cfg (Slice.joint s) slot with
    | Some (`Done r) -> Value.equal r res
    | _ -> false)
  | None -> false

(* My claimed history entries are permanent. *)
let assert_hist_owned fc h0 st =
  match State.find fc st with
  | Some s -> (
    match split_aux (Slice.self s) with
    | Some (_, _, hist) -> Hist.subhist h0 hist
    | None -> false)
  | None -> false
(*!Main*)

(* One combiner pass over a slot. *)
let combine_slot so cfg fc i : unit Prog.t =
  let open Prog in
  let* st = act (read_slot_act cfg fc i) in
  match st with
  | `Request _ ->
    let* () = act (apply_act so cfg fc i) in
    act (respond_act cfg fc i)
  | `Empty | `Done _ -> ret ()

(* flat_combine (Section 4.2): publish, then either collect a helped
   result or become the combiner and run everybody's requests. *)
let flat_combine so cfg fc ~slot op arg : Value.t Prog.t =
  let open Prog in
  let* () = act (publish_act so cfg fc ~slot op arg) in
  Prog.ffix
    (fun loop () ->
      let* status = act (poll_act cfg fc ~slot) in
      match status with
      | `Done _ -> act (claim_act cfg fc ~slot)
      | `Pending ->
        let* got = act (try_lock_act cfg fc) in
        if got then
          let* () =
            List.fold_left
              (fun acc i -> seq acc (combine_slot so cfg fc i))
              (ret ())
              (List.init (List.length cfg.slots) Fun.id)
          in
          let* () = act (unlock_act cfg fc) in
          loop ()
        else loop ())
    ()

(* The paper's flat_combine spec (Section 4.2, weak form): from an empty
   self history, the call returns w with the self history gaining
   exactly one entry (op, arg, w) — regardless of who executed it. *)
let flat_combine_spec so cfg fc ~slot op arg : Value.t Spec.t =
  ignore so;
  Spec.make
    ~name:(Fmt.str "flat_combine(%s@%d)" op slot)
    ~pre:(fun st ->
      match State.find fc st with
      | Some s -> (
        match split_aux (Slice.self s) with
        | Some (Mutex.Not_own, tokens, hist) ->
          Ptr.Set.mem (List.nth cfg.slots slot) tokens
          && Hist.is_empty hist
          && slot_state cfg (Slice.joint s) slot = Some `Empty
        | _ -> false)
      | None -> false)
    ~post:(fun w _i f ->
      match State.find fc f with
      | Some s -> (
        match split_aux (Slice.self s) with
        | Some (_, _, hist) -> (
          match Hist.entries hist with
          | [ e ] ->
            String.equal e.Hist.op op
            && Value.equal e.Hist.arg arg
            && Value.equal e.Hist.res w
          | _ -> false)
        | None -> false)
      | None -> false)
(*!End*)
