(* The atomic pair snapshot (paper, Section 6, Table 1 row "Pair
   snapshot"; Qadeer et al.'s verioned-cells algorithm): two shared
   cells, each paired with a version counter bumped on every write.
   [read_pair] reads x, then y, then re-reads x's version; if the
   version is unchanged, the two values were simultaneously present.

   Specs are given via a PCM of time-stamped histories (Section 6): each
   write is an entry recording the pair of values it produced; the
   postcondition of [read_pair] says the returned pair occurs as some
   history state between the call's start and finish. *)

open Fcsl_heap
open Fcsl_core
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

(*!Libs*)
let x_cell = Ptr.of_int 70
let y_cell = Ptr.of_int 71

let value_domain = [ 0; 1 ]

let cell_of joint p =
  Option.bind (Heap.find p joint) (fun v ->
      match Value.as_pair v with
      | Some (Value.Int contents, Value.Int version) -> Some (contents, version)
      | _ -> None)

let pack_cell contents version =
  Value.pair (Value.int contents) (Value.int version)

let pair_state cx cy = Value.pair (Value.int cx) (Value.int cy)

let hist_of a = Aux.as_hist a

(* The pair state recorded by a history entry. *)
let entry_pair e =
  match Value.as_pair e.Hist.state with
  | Some (Value.Int a, Value.Int b) -> Some (a, b)
  | _ -> None

(* Count the writes to a given cell in a history. *)
let writes_to op h =
  Hist.fold (fun _ e n -> if String.equal e.Hist.op op then n + 1 else n) h 0
(*!Conc*)

(* Coherence: both cells are (value, version) pairs; self/other are
   histories; the combined history is continuous, its per-cell write
   counts equal the version counters, and its last recorded pair equals
   the current cell contents. *)
let coh s =
  match
    (cell_of (Slice.joint s) x_cell, cell_of (Slice.joint s) y_cell,
     hist_of (Slice.self s), hist_of (Slice.other s))
  with
  | Some (cx, vx), Some (cy, vy), Some hs, Some ho -> (
    Slice.valid s
    &&
    match Hist.join hs ho with
    | Some total ->
      Hist.continuous total
      && writes_to "wx" total = vx
      && writes_to "wy" total = vy
      && (Hist.is_empty total
         ||
         match Hist.find (Hist.last_ts total) total with
         | Some e -> (
           match entry_pair e with
           | Some (a, b) -> a = cx && b = cy
           | None -> false)
         | None -> false)
      && (not (Hist.is_empty total) || (cx = 0 && cy = 0))
    | None -> false)
  | _ -> false

(* A write to one of the cells: bump the version, stamp a history entry
   recording the produced pair. *)
let write_tr name cell op other_cell : Concurroid.transition =
  {
    tr_name = name;
    tr_external = false;
    tr_step =
      (fun s ->
        match
          (cell_of (Slice.joint s) cell, cell_of (Slice.joint s) other_cell,
           hist_of (Slice.self s), hist_of (Slice.other s))
        with
        | Some (_, ver), Some (co, _), Some hs, Some ho ->
          let total_last =
            match Hist.join hs ho with
            | Some t -> Hist.last_ts t
            | None -> -1
          in
          if total_last < 0 then []
          else
            List.map
              (fun v ->
                let state =
                  if String.equal op "wx" then pair_state v co
                  else pair_state co v
                in
                let entry = Hist.entry ~arg:(Value.int v) ~state op in
                s
                |> Slice.with_joint
                     (Heap.update cell (pack_cell v (ver + 1)) (Slice.joint s))
                |> Slice.with_self (Aux.hist (Hist.add (total_last + 1) entry hs)))
              value_domain
        | _ -> []);
  }

let write_x_tr = write_tr "write_x" x_cell "wx" y_cell
let write_y_tr = write_tr "write_y" y_cell "wy" x_cell

(* Enumeration: all runs of at most [depth] writes from the all-zero
   state, with every split of the resulting history. *)
let enum ?(depth = 2) () =
  let base =
    Slice.make ~self:(Aux.hist Hist.empty)
      ~joint:
        (Heap.of_list [ (x_cell, pack_cell 0 0); (y_cell, pack_cell 0 0) ])
      ~other:(Aux.hist Hist.empty)
  in
  let rec run k frontier acc =
    if k = 0 then acc
    else
      let next =
        List.concat_map
          (fun s ->
            List.map snd
              (List.concat_map
                 (fun tr ->
                   List.map (fun s' -> ((), s')) (tr.Concurroid.tr_step s))
                 [ write_x_tr; write_y_tr ]))
          frontier
      in
      run (k - 1) next (next @ acc)
  in
  let reachable = base :: run depth [ base ] [] in
  (* All history splits of every reachable state. *)
  List.concat_map
    (fun s ->
      match hist_of (Slice.self s) with
      | Some h ->
        List.filter_map
          (fun (a, b) ->
            match (a, b) with
            | Aux.Hist ha, Aux.Hist hb ->
              Some
                (s |> Slice.with_self (Aux.hist ha)
               |> Slice.with_other (Aux.hist hb))
            | Aux.Unit, Aux.Hist hb ->
              Some
                (s
                |> Slice.with_self (Aux.hist Hist.empty)
                |> Slice.with_other (Aux.hist hb))
            | Aux.Hist ha, Aux.Unit ->
              Some
                (s |> Slice.with_self (Aux.hist ha)
               |> Slice.with_other (Aux.hist Hist.empty))
            | _ -> None)
          (Aux.splits (Aux.hist h))
      | None -> [])
    reachable

let concurroid ?(depth = 2) label =
  Concurroid.make ~label ~name:"ReadPair" ~coh
    ~transitions:[ write_x_tr; write_y_tr ]
    ~enum:(fun () -> enum ~depth ())
    ()
(*!Acts*)

(* read_cell: idle read of (value, version). *)
let read_cell sp cell : (int * int) Action.t =
  Action.make
    ~name:(Fmt.str "read_cell(%a)" Ptr.pp cell)
    ~fp:(Footprint.reads sp)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s -> Option.is_some (cell_of (Slice.joint s) cell)
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn sp st in
      (Option.get (cell_of (Slice.joint s) cell), st))
    ~phys:(fun _ -> Action.Read cell)
    ()

(* write_cell: the versioned write, taking the write transition and
   stamping the entry into the writer's self history. *)
let write_cell sp cell v : unit Action.t =
  let op = if Ptr.equal cell x_cell then "wx" else "wy" in
  let other_cell = if Ptr.equal cell x_cell then y_cell else x_cell in
  Action.make
    ~name:(Fmt.str "write_cell(%a,%d)" Ptr.pp cell v)
    ~fp:(Footprint.writes sp)
    ~safe:(fun st ->
      match State.find sp st with
      | Some s ->
        Option.is_some (cell_of (Slice.joint s) cell)
        && Option.is_some (cell_of (Slice.joint s) other_cell)
        && Option.is_some (hist_of (Slice.self s))
        && Option.is_some (hist_of (Slice.other s))
      | None -> false)
    ~step:(fun st ->
      let s = State.find_exn sp st in
      let _, ver = Option.get (cell_of (Slice.joint s) cell) in
      let co, _ = Option.get (cell_of (Slice.joint s) other_cell) in
      let hs = Option.get (hist_of (Slice.self s)) in
      let ho = Option.get (hist_of (Slice.other s)) in
      let ts = Hist.last_ts (Hist.join_exn hs ho) + 1 in
      let state =
        if String.equal op "wx" then pair_state v co else pair_state co v
      in
      let entry = Hist.entry ~arg:(Value.int v) ~state op in
      let s' =
        s
        |> Slice.with_joint
             (Heap.update cell (pack_cell v (ver + 1)) (Slice.joint s))
        |> Slice.with_self (Aux.hist (Hist.add ts entry hs))
      in
      ((), State.add sp s' st))
    ~phys:(fun st ->
      let s = State.find_exn sp st in
      let _, ver = Option.get (cell_of (Slice.joint s) cell) in
      Action.Write (cell, pack_cell v (ver + 1)))
    ()
(*!Stab*)

(* Version counters only grow — the stability backbone of the re-check
   argument. *)
let assert_version_at_least sp cell n st =
  match State.find sp st with
  | Some s -> (
    match cell_of (Slice.joint s) cell with
    | Some (_, ver) -> ver >= n
    | None -> false)
  | None -> false

(* A cell with its version pins its value: if the version is still [n],
   the value is still [v].  This is what makes the double-read sound. *)
let assert_version_pins sp cell (v, n) st =
  match State.find sp st with
  | Some s -> (
    match cell_of (Slice.joint s) cell with
    | Some (c, ver) -> ver > n || (ver = n && c = v)
    | None -> false)
  | None -> false

(* History growth: the combined history only gains entries. *)
let assert_hist_extends sp h0 st =
  match State.find sp st with
  | Some s -> (
    match (hist_of (Slice.self s), hist_of (Slice.other s)) with
    | Some hs, Some ho -> (
      match Hist.join hs ho with
      | Some total -> Hist.subhist h0 total
      | None -> false)
    | _ -> false)
  | None -> false
(*!Main*)

(* read_pair (the paper's Figure for [43]): double-collect with version
   re-check. *)
let read_pair sp : (int * int) Prog.t =
  let open Prog in
  Prog.annot (Footprint.reads sp)
    (Prog.ffix
       (fun loop () ->
         let* vx, tx = act (read_cell sp x_cell) in
         let* vy, _ = act (read_cell sp y_cell) in
         let* _, tx' = act (read_cell sp x_cell) in
         if tx = tx' then ret (vx, vy) else loop ())
       ())

(* The broken variant for failure injection: no version re-check. *)
let read_pair_unchecked sp : (int * int) Prog.t =
  let open Prog in
  Prog.annot (Footprint.reads sp)
    (let* vx, _ = act (read_cell sp x_cell) in
     let* vy, _ = act (read_cell sp y_cell) in
     ret (vx, vy))

(* The snapshot spec: the returned pair occurs as a simultaneous state
   of the combined history somewhere between call and return (including
   the state at entry). *)
let read_pair_spec sp : (int * int) Spec.t =
  Spec.make ~name:"read_pair"
    ~pre:(fun st ->
      match State.find sp st with Some s -> coh s | None -> false)
    ~post:(fun (a, b) st_i st_f ->
      match (State.find sp st_i, State.find sp st_f) with
      | Some i, Some f -> (
        match
          ( cell_of (Slice.joint i) x_cell, cell_of (Slice.joint i) y_cell,
            hist_of (Slice.self i), hist_of (Slice.other i),
            hist_of (Slice.self f), hist_of (Slice.other f) )
        with
        | Some (cx, _), Some (cy, _), Some hsi, Some hoi, Some hsf, Some hof
          -> (
          match (Hist.join hsi hoi, Hist.join hsf hof) with
          | Some hi, Some hf ->
            let entry_states =
              Hist.fold
                (fun ts e acc ->
                  if ts > Hist.last_ts hi then
                    match entry_pair e with
                    | Some p -> p :: acc
                    | None -> acc
                  else acc)
                hf []
            in
            List.exists (fun (a', b') -> a = a' && b = b') ((cx, cy) :: entry_states)
          | _ -> false)
        | _ -> false)
      | _ -> false)

(* A writer's spec: its history gains exactly its own write. *)
let write_spec sp cell v : unit Spec.t =
  let op = if Ptr.equal cell x_cell then "wx" else "wy" in
  Spec.make
    ~name:(Fmt.str "write_%s(%d)" op v)
    ~pre:(fun st ->
      match State.find sp st with
      | Some s -> coh s && Aux.is_unit (Slice.self s)
      | None -> false)
    ~post:(fun () _i st_f ->
      match State.find sp st_f with
      | Some f -> (
        match hist_of (Slice.self f) with
        | Some hs ->
          Hist.cardinal hs = 1
          && List.for_all
               (fun e ->
                 String.equal e.Hist.op op
                 && Value.equal e.Hist.arg (Value.int v))
               (Hist.entries hs)
        | None -> false)
      | None -> false)

(* Verification drivers. *)

let sp_label = Label.make "snapshot"

let world () = World.of_list [ concurroid sp_label ]

let init_states () =
  List.map (fun s -> State.singleton sp_label s) (enum ~depth:1 ())

let verify ?(fuel = 18) ?(env_budget = 2) ?(max_outcomes = 400_000) () :
    Verify.report list =
  let w = world () in
  let init = init_states () in
  [
    Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
      (read_pair sp_label) (read_pair_spec sp_label);
    Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
      (Prog.act (write_cell sp_label x_cell 1))
      (write_spec sp_label x_cell 1);
    Verify.check_triple ~fuel ~env_budget ~max_outcomes ~world:w ~init
      (Prog.par (read_pair sp_label)
         (Prog.act (write_cell sp_label y_cell 1)))
      (Spec.make ~name:"read_pair || write_y"
         ~pre:(Spec.pre (read_pair_spec sp_label))
         ~post:(fun ((a, b), ()) i f ->
           Spec.post (read_pair_spec sp_label) (a, b) i f));
  ]

(* The injected bug must be refuted. *)
let refute_unchecked ?(fuel = 18) ?(env_budget = 2) () : Verify.report =
  Verify.check_triple ~fuel ~env_budget ~world:(world ()) ~init:(init_states ())
    (read_pair_unchecked sp_label)
    (read_pair_spec sp_label)
(*!End*)
