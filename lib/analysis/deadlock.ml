(* Static deadlock & progress analysis (docs/ANALYSIS.md, §Deadlock).

   Lock-shaped concurroids self-declare as locks ({!Fcsl_core.Concurroid.lock_info}:
   a dynamic holding observer plus the action-name prefixes that acquire
   and release them).  From that census this pass classifies every
   schedulable move of a case — reusing the per-case inventories of
   {!Independence} and the declared {!Fcsl_core.Footprint} metadata
   (CAS-guardedness, blocking guards) — into lock-acquisition events,
   assembles per-thread acquisition paths, folds them into a global
   lock-order graph, and reports:

   (a) potential deadlocks, as located cycles with the witnessing
       acquisition paths;
   (b) must-release violations: a path that exits a scope (a plain
       return, a [hide] scope exit, or an exceptional crash exit) still
       holding a lock;
   (c) a certified total lock order when the graph is acyclic — the
       artifact downstream two-phase-locking scenarios consume from
       [fcsl analyze --json].

   Soundness envelope.  Acquisition paths come from two sources.  The
   [Prog] AST walk sees the visible spine only: continuations of [Bind]
   and bodies of [Ffix] are opaque OCaml closures, so a path crossing
   one is marked incomplete — incomplete paths still contribute their
   visible order edges, but are exempt from must-release checking (no
   false positives from invisible releases).  Declared scripts
   ({!script}) are complete by fiat; the registry-wide static/dynamic
   differential (test/test_deadlock.ml) and the scheduler's stuck-state
   detector keep both sources honest: a statically clean case must
   never produce a {!Fcsl_core.Crash.Deadlock} witness dynamically, and
   the injected lock-inversion/leaked-lock scenarios must be flagged by
   both layers with matching lock names.  For the Table 1 rows the
   per-case inventory census additionally carries a structural
   argument: each row's world contains at most one lock-shaped
   concurroid, so no multi-lock acquisition order exists to invert, and
   the (trivial) total order is certifiable from the census alone. *)

open Fcsl_core
module Registry = Fcsl_report.Registry

let rule_cycle = "lock-cycle"
let rule_must_release = "must-release"
let rule_no_release = "lock-no-release"
let rule_order_unknown = "lock-order-unknown"

(* --- lock census ---------------------------------------------------- *)

type lock = {
  lk_label : Label.t;
  lk_name : string; (* Label.name, the cross-layer identifier *)
  lk_conc : string; (* concurroid name, e.g. "CLock" *)
  lk_acquires : string list;
  lk_releases : string list;
}

let locks_of_world w =
  List.filter_map
    (fun c ->
      match Concurroid.lock_info c with
      | None -> None
      | Some li ->
        let l = Concurroid.label c in
        Some
          {
            lk_label = l;
            lk_name = Label.name l;
            lk_conc = Concurroid.name c;
            lk_acquires = li.Concurroid.li_acquires;
            lk_releases = li.Concurroid.li_releases;
          })
    (World.concurroids w)

(* --- event classification ------------------------------------------- *)

type event =
  | Acquire of {
      e_lock : string;
      e_loc : string;
      e_blocking : bool; (* the action has a scheduling guard *)
      e_cas : bool; (* the declared footprint CASes the lock label *)
    }
  | Release of { e_lock : string; e_loc : string }

let event_lock = function Acquire a -> a.e_lock | Release r -> r.e_lock

let pp_event ppf = function
  | Acquire a ->
    Fmt.pf ppf "acquire %s%s%s" a.e_lock
      (if a.e_blocking then " (blocking)" else "")
      (if a.e_cas then " (CAS-guarded)" else "")
  | Release r -> Fmt.pf ppf "release %s" r.e_lock

let prefixed ~prefix name =
  String.length name >= String.length prefix
  && String.equal (String.sub name 0 (String.length prefix)) prefix

(* Classify one schedulable action against the lock census: an acquire
   if its name carries a lock's declared acquire prefix, a release for
   a release prefix, [None] for lock-unrelated moves.  The declared
   footprint corroborates: CAS-guardedness is read off the access kinds
   at the lock's label, blocking off the action's scheduling guard. *)
let classify ~locks ~loc (Independence.Any a) : event option =
  let name = Action.name a in
  let fp = Action.footprint a in
  let find sel =
    List.find_opt
      (fun lk -> List.exists (fun prefix -> prefixed ~prefix name) (sel lk))
      locks
  in
  match find (fun lk -> lk.lk_acquires) with
  | Some lk ->
    Some
      (Acquire
         {
           e_lock = lk.lk_name;
           e_loc = loc;
           e_blocking = Action.blocking a;
           e_cas = List.mem Footprint.Cas (Footprint.accesses fp lk.lk_label);
         })
  | None -> (
    match find (fun lk -> lk.lk_releases) with
    | Some lk -> Some (Release { e_lock = lk.lk_name; e_loc = loc })
    | None -> None)

(* --- acquisition paths ---------------------------------------------- *)

type exit_kind = Returns | Hide_exit | Crash_exit

let exit_name = function
  | Returns -> "return"
  | Hide_exit -> "hide scope exit"
  | Crash_exit -> "crash exit"

type path = {
  th_name : string;
  th_events : event list; (* in program order *)
  th_complete : bool;
      (* [false] when the walk crossed an opaque continuation: the
         visible prefix still contributes order edges, but must-release
         is not judged on it *)
  th_exit : exit_kind;
}

(* The visible-spine walk over the Prog AST.  [Par] forks one path per
   arm; [Bind] continuations and [Ffix] bodies are opaque, so anything
   sequenced after them is invisible and the path is marked
   incomplete.  [Hide] marks its arms as exiting a hide scope. *)
let paths_of_prog ~locks ~name (prog : 'a Prog.t) : path list =
  let rec go : type a. string -> exit_kind -> a Prog.t -> path list =
   fun tname exit p ->
    match p with
    | Prog.Ret _ ->
      [ { th_name = tname; th_events = []; th_complete = true; th_exit = exit } ]
    | Prog.Act a ->
      let loc = Fmt.str "%s: %s" tname (Action.name a) in
      [
        {
          th_name = tname;
          th_events = Option.to_list (classify ~locks ~loc (Independence.Any a));
          th_complete = true;
          th_exit = exit;
        };
      ]
    | Prog.Bind (q, _) ->
      (* the continuation is an opaque closure: keep the visible
         prefix, surrender completeness *)
      List.map
        (fun pth -> { pth with th_complete = false })
        (go tname exit q)
    | Prog.Par (q, r) -> go (tname ^ ".L") exit q @ go (tname ^ ".R") exit r
    | Prog.ParSplit (_, q, r) ->
      go (tname ^ ".L") exit q @ go (tname ^ ".R") exit r
    | Prog.Ffix (_, _) ->
      [ { th_name = tname; th_events = []; th_complete = false; th_exit = exit } ]
    | Prog.Hide (_, body) -> go tname Hide_exit body
    | Prog.Annot (_, q) -> go tname exit q
  in
  go name Returns prog

(* --- declared acquisition scripts ----------------------------------- *)

(* The explicit-path source: a script declares one thread's lock events
   in order, with the kind of scope exit its last step reaches.  The
   injected scenarios build both their static paths and their dynamic
   programs from one script value, so the two layers cannot drift. *)
type step = S_acquire of string | S_release of string

type script = {
  sc_thread : string;
  sc_steps : step list;
  sc_exit : exit_kind;
}

let path_of_script sc =
  let events =
    List.mapi
      (fun i st ->
        let loc = Fmt.str "%s, step %d" sc.sc_thread (i + 1) in
        match st with
        | S_acquire l ->
          Acquire { e_lock = l; e_loc = loc; e_blocking = true; e_cas = true }
        | S_release l -> Release { e_lock = l; e_loc = loc })
      sc.sc_steps
  in
  {
    th_name = sc.sc_thread;
    th_events = events;
    th_complete = true;
    th_exit = sc.sc_exit;
  }

let paths_of_scripts scs = List.map path_of_script scs

(* --- the lock-order graph ------------------------------------------- *)

type edge = {
  ed_from : string; (* holding this lock ... *)
  ed_to : string; (* ... a thread acquires this one *)
  ed_via : string; (* the witnessing acquisition step *)
}

type graph = { g_locks : string list; g_edges : edge list }

(* Simulate one path's held set (a stack of (lock, acquisition loc));
   an acquire while holding adds one order edge per held lock —
   including a self-edge on re-acquiring a held lock, the length-1
   cycle of a non-reentrant self-deadlock. *)
let fold_path_edges path =
  let edges = ref [] in
  let held =
    List.fold_left
      (fun held ev ->
        match ev with
        | Acquire a ->
          List.iter
            (fun (h, hloc) ->
              edges :=
                {
                  ed_from = h;
                  ed_to = a.e_lock;
                  ed_via =
                    Fmt.str "%s: holds %s (acquired at %s), acquires %s at %s"
                      path.th_name h hloc a.e_lock a.e_loc;
                }
                :: !edges)
            held;
          (a.e_lock, a.e_loc) :: held
        | Release r ->
          let rec drop = function
            | [] -> [] (* releasing an unheld lock: judged elsewhere *)
            | (h, _) :: tl when String.equal h r.e_lock -> tl
            | pair :: tl -> pair :: drop tl
          in
          drop held)
      [] path.th_events
  in
  (List.rev !edges, held)

let graph_of_paths ~locks paths =
  let names =
    List.sort_uniq String.compare
      (List.map (fun lk -> lk.lk_name) locks
      @ List.concat_map
          (fun p -> List.map event_lock p.th_events)
          paths)
  in
  let edges =
    List.concat_map (fun p -> fst (fold_path_edges p)) paths
  in
  (* one edge per (from, to), first witness kept *)
  let edges =
    List.fold_left
      (fun acc e ->
        if
          List.exists
            (fun e' ->
              String.equal e.ed_from e'.ed_from
              && String.equal e.ed_to e'.ed_to)
            acc
        then acc
        else e :: acc)
      [] edges
    |> List.rev
  in
  { g_locks = names; g_edges = edges }

let succs g n =
  List.filter_map
    (fun e -> if String.equal e.ed_from n then Some e.ed_to else None)
    g.g_edges

(* All simple cycles up to rotation (lock graphs here are tiny).  Each
   cycle is reported in its lexicographically-least rotation. *)
let cycles g : string list list =
  let rotate_min cyc =
    let n = List.length cyc in
    let arr = Array.of_list cyc in
    let rotation i = List.init n (fun j -> arr.((i + j) mod n)) in
    let best = ref (rotation 0) in
    for i = 1 to n - 1 do
      let r = rotation i in
      if compare r !best < 0 then best := r
    done;
    !best
  in
  let found = ref [] in
  let rec dfs start node path =
    List.iter
      (fun m ->
        if String.equal m start then begin
          let c = rotate_min (List.rev path) in
          if not (List.mem c !found) then found := c :: !found
        end
        else if not (List.mem m path) then dfs start m (m :: path))
      (succs g node)
  in
  List.iter (fun n -> dfs n n [ n ]) g.g_locks;
  List.rev !found

(* Kahn's topological sort with name-sorted tie-breaking: the
   deterministic certified order.  [None] when the graph is cyclic. *)
let total_order g : string list option =
  let rec kahn placed remaining =
    if remaining = [] then Some (List.rev placed)
    else
      let ready =
        List.filter
          (fun n ->
            not
              (List.exists
                 (fun e ->
                   String.equal e.ed_to n && List.mem e.ed_from remaining)
                 g.g_edges))
          remaining
      in
      match List.sort String.compare ready with
      | [] -> None (* every remaining node sits on a cycle *)
      | n :: _ ->
        kahn (n :: placed) (List.filter (fun m -> not (String.equal m n)) remaining)
  in
  kahn [] (List.sort String.compare g.g_locks)

(* --- verdicts -------------------------------------------------------- *)

type verdict = {
  v_case : string;
  v_locks : string list;
  v_order : string list option; (* certified total order when acyclic *)
  v_cycles : string list list;
  v_findings : Diag.finding list;
}

let clean v = not (Diag.has_errors v.v_findings)

let cycle_findings ~case g cyclist =
  List.map
    (fun cyc ->
      let closed = cyc @ [ List.hd cyc ] in
      let witnesses =
        List.concat_map
          (fun (a, b) ->
            List.filter_map
              (fun e ->
                if String.equal e.ed_from a && String.equal e.ed_to b then
                  Some e.ed_via
                else None)
              g.g_edges)
          (List.combine cyc (List.tl closed))
      in
      Diag.error ~rule:rule_cycle ~loc:case
        (Fmt.str "potential deadlock: lock-order cycle %s"
           (String.concat " -> " closed))
        ~detail:witnesses)
    cyclist

let must_release_findings ~case paths =
  List.concat_map
    (fun p ->
      if not p.th_complete then []
      else
        let _, leaked = fold_path_edges p in
        List.map
          (fun (h, hloc) ->
            Diag.error ~rule:rule_must_release
              ~loc:(Fmt.str "%s, thread %s" case p.th_name)
              (Fmt.str "path exits its scope (%s) still holding lock %s"
                 (exit_name p.th_exit) h)
              ~detail:
                [ Fmt.str "acquired at %s and never released on this path" hloc ])
          (List.rev leaked))
    paths

let analyze_paths ~case ~locks paths : verdict =
  let g = graph_of_paths ~locks paths in
  let cyclist = cycles g in
  let findings =
    cycle_findings ~case g cyclist @ must_release_findings ~case paths
  in
  {
    v_case = case;
    v_locks = g.g_locks;
    v_order = (if cyclist = [] then total_order g else None);
    v_cycles = cyclist;
    v_findings = findings;
  }

let analyze_scripts ~case ~locks scripts =
  analyze_paths ~case ~locks (paths_of_scripts scripts)

(* --- registry-wide analysis ----------------------------------------- *)

(* One Table 1 row, through its {!Independence} inventory: census the
   world's locks, classify the schedulable actions, and apply the
   structural argument — at most one lock-shaped concurroid per row
   world, so no multi-lock order exists to invert and the census alone
   certifies the (trivial) total order.  A lock whose inventory
   acquires but never releases is flagged; a multi-lock world without
   path summaries refuses to certify instead of guessing. *)
let analyze_case name : verdict option =
  match Independence.inventory_of_case name with
  | None -> None
  | Some inv ->
    let locks = locks_of_world inv.Independence.i_world in
    let classified =
      List.filter_map
        (fun (Independence.Any a as any) ->
          classify ~locks
            ~loc:(Fmt.str "%s: %s" name (Action.name a))
            any)
        inv.Independence.i_actions
    in
    let no_release =
      List.filter_map
        (fun lk ->
          let acq =
            List.exists
              (function
                | Acquire a -> String.equal a.e_lock lk.lk_name
                | Release _ -> false)
              classified
          and rel =
            List.exists
              (function
                | Release r -> String.equal r.e_lock lk.lk_name
                | Acquire _ -> false)
              classified
          in
          if acq && not rel then
            Some
              (Diag.warning ~rule:rule_no_release ~loc:name
                 (Fmt.str
                    "lock %s has acquiring moves but no releasing move in \
                     the case's inventory"
                    lk.lk_name))
          else None)
        locks
    in
    let names = List.sort String.compare (List.map (fun lk -> lk.lk_name) locks) in
    let multi =
      if List.length locks <= 1 then []
      else
        [
          Diag.info ~rule:rule_order_unknown ~loc:name
            (Fmt.str
               "world has %d lock-shaped concurroids but no acquisition-path \
                summaries: order not certified from the census"
               (List.length locks));
        ]
    in
    Some
      {
        v_case = name;
        v_locks = names;
        v_order = (if List.length locks <= 1 then Some names else None);
        v_cycles = [];
        v_findings = no_release @ multi;
      }

let analyze_all () : verdict list =
  List.filter_map
    (fun (c : Registry.case) -> analyze_case c.Registry.c_name)
    Registry.all

(* --- the dynamic witness, parsed back ------------------------------- *)

(* The scheduler's stuck-state crash message has a load-bearing shape
   (see [deadlock_message] in lib/core/sched.ml):

     ... held locks: {A, B}; blocked: [try_lock(x93) awaiting B, ...]

   These parsers recover the located lock names so the differential
   tests can compare them with the static verdicts by name. *)

let split_commas s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> not (String.equal x ""))

let delimited ~after ~opening ~closing msg =
  let rec find i =
    if i + String.length after > String.length msg then None
    else if String.equal (String.sub msg i (String.length after)) after then
      Some (i + String.length after)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
    match String.index_from_opt msg i opening with
    | None -> None
    | Some o -> (
      match String.index_from_opt msg o closing with
      | None -> None
      | Some c -> Some (String.sub msg (o + 1) (c - o - 1))))

let held_of_witness (c : Crash.t) : string list =
  if Crash.kind c <> Crash.Deadlock then []
  else
    match
      delimited ~after:"held locks:" ~opening:'{' ~closing:'}'
        (Crash.message c)
    with
    | None -> []
    | Some inner -> split_commas inner

let awaited_of_witness (c : Crash.t) : string list =
  if Crash.kind c <> Crash.Deadlock then []
  else
    match
      delimited ~after:"blocked:" ~opening:'[' ~closing:']' (Crash.message c)
    with
    | None -> []
    | Some inner ->
      List.filter_map
        (fun entry ->
          match String.index_opt entry ' ' with
          | None -> None
          | Some _ -> (
            let marker = " awaiting " in
            let rec find i =
              if i + String.length marker > String.length entry then None
              else if
                String.equal (String.sub entry i (String.length marker)) marker
              then Some (String.sub entry (i + String.length marker)
                           (String.length entry - i - String.length marker))
              else find (i + 1)
            in
            find 0))
        (split_commas inner)
      |> List.sort_uniq String.compare

let witness_locks (c : Crash.t) : string list =
  List.sort_uniq String.compare (held_of_witness c @ awaited_of_witness c)

(* --- rendering ------------------------------------------------------- *)

let pp_verdict ppf v =
  let status =
    if clean v then
      match v.v_order with
      | Some order when order <> [] ->
        Fmt.str "clean (certified order: %s)" (String.concat " < " order)
      | _ -> "clean (no locks)"
    else "FLAGGED"
  in
  Fmt.pf ppf "@[<v2>%s: %s@ locks: %s%a@]" v.v_case status
    (if v.v_locks = [] then "-" else String.concat ", " v.v_locks)
    Fmt.(list ~sep:nop (fun ppf f -> Fmt.pf ppf "@ %a" Diag.pp f))
    v.v_findings

let verdict_to_json v =
  let strs xs = Json.Arr (List.map (fun x -> Json.Str x) xs) in
  Json.Obj
    [
      ("case", Json.Str v.v_case);
      ("locks", strs v.v_locks);
      ("clean", Json.Bool (clean v));
      ("order", Option.fold ~none:Json.Null ~some:strs v.v_order);
      ("cycles", Json.Arr (List.map strs v.v_cycles));
      ("findings", Json.Arr (List.map Diag.finding_to_json v.v_findings));
    ]
