(* Operational semantics of the DSL: a small-step interleaving scheduler
   over configurations, with optional environment interference.

   A configuration is a global environment (the shared joint heaps, the
   external environment's contribution, and the ambient world of
   concurroids) plus a tree of running threads.  Each [Par] node carries
   the PCM contributions of its two children; a thread's subjective view
   of label [l] is

     self  = its own contribution at l
     joint = the shared joint heap at l
     other = external contribution • all sibling contributions at l

   which is exactly FCSL's subjective split.  Forked children start with
   unit contributions and fold their earnings back into the parent on
   join.

   Administrative steps (monad laws, recursion unfolding, hide
   installation, joins) are performed eagerly — they commute with every
   other thread's steps — so scheduling choice points are exactly the
   atomic actions and (when enabled) environment interference, keeping
   exhaustive exploration tractable. *)

open Fcsl_heap
module Aux = Fcsl_pcm.Aux

type genv = {
  joints : Heap.t Label.Map.t;
  jauxs : Contrib.t; (* per-label joint auxiliary state *)
  ext_other : Contrib.t;
  world : World.t; (* ambient + dynamically installed concurroids *)
  interfere : Label.Set.t; (* labels open to environment interference *)
  ghash : int; (* incremental fingerprint of joints/jauxs/ext_other *)
}

(* Incremental shared-state hashing.  [ghash] is the XOR, over labels,
   of one avalanche-mixed word per bound component, so every site that
   rewrites a label patches the old word out and the new one in — O(1)
   per touched label instead of re-folding three maps per config key.
   Conventions mirror the semantic equalities the memo table uses:
   every joint-heap binding is mixed (a bound empty heap differs from
   an absent binding under [Label.Map.equal Heap.equal]); structural
   [Aux.Unit] contribution bindings are skipped (indistinguishable from
   absent ones under [Contrib.equal], cf. [Contrib.hash]).  Distinct
   salts keep equal values in different components from cancelling. *)
let mix_joint l h = State.mix ~salt:0x6a l (Heap.hash h)

let mix_jaux l a =
  match a with Aux.Unit -> 0 | _ -> State.mix ~salt:0x6b l (Aux.hash a)

let mix_ext l a =
  match a with Aux.Unit -> 0 | _ -> State.mix ~salt:0x6c l (Aux.hash a)

let ghash_of ~joints ~jauxs ~ext_other =
  let h = Label.Map.fold (fun l j acc -> acc lxor mix_joint l j) joints 0 in
  let h =
    List.fold_left
      (fun acc l -> acc lxor mix_jaux l (Contrib.get l jauxs))
      h (Contrib.labels jauxs)
  in
  List.fold_left
    (fun acc l -> acc lxor mix_ext l (Contrib.get l ext_other))
    h
    (Contrib.labels ext_other)

let recompute_ghash genv =
  ghash_of ~joints:genv.joints ~jauxs:genv.jauxs ~ext_other:genv.ext_other

(* Runtime thread trees. *)
type _ rt =
  | RRet : 'a -> 'a rt
  | RBind : 'b rt * ('b -> 'a Prog.t) -> 'a rt
  | RAct : 'a Action.t -> 'a rt
  | RPar : 'b rt * Contrib.t * 'c rt * Contrib.t -> ('b * 'c) rt
  | RParP : Prog.split * 'b Prog.t * 'c Prog.t -> ('b * 'c) rt
      (* pending fork split *)
  | RHideP : Prog.hide_spec * 'a Prog.t -> 'a rt (* pending installation *)
  | RHideI : Prog.hide_spec * 'a rt -> 'a rt (* installed, body running *)

let rec inject : type a. a Prog.t -> a rt = function
  | Prog.Ret v -> RRet v
  | Prog.Bind (p, k) -> RBind (inject p, k)
  | Prog.Act a -> RAct a
  | Prog.Par (p, q) -> RPar (inject p, Contrib.empty, inject q, Contrib.empty)
  | Prog.ParSplit (split, p, q) -> RParP (split, p, q)
  | Prog.Ffix (f, x) -> inject (Prog.unfold_ffix f x)
  | Prog.Hide (spec, body) -> RHideP (spec, body)
  | Prog.Annot (_, p) -> inject p (* semantically transparent *)

(* The sum of all contributions held inside a thread tree (excluding the
   root's own contribution, which the caller holds). *)
let rec inner_contribs : type a. a rt -> Contrib.t option = function
  | RRet _ | RAct _ -> Some Contrib.empty
  | RBind (p, _) -> inner_contribs p
  | RParP _ -> Some Contrib.empty
  | RHideP _ -> Some Contrib.empty
  | RHideI (_, body) -> inner_contribs body
  | RPar (l, cl, r, cr) ->
    Option.bind (inner_contribs l) (fun il ->
        Option.bind (inner_contribs r) (fun ir ->
            Contrib.join_all [ cl; cr; il; ir ]))

(* The subjective state a thread with contribution [mine] and sibling
   contributions [around] sees. *)
let view genv ~around ~mine : State.t option =
  Label.Map.fold
    (fun l joint acc ->
      Option.bind acc (fun st ->
          Option.map
            (fun other ->
              State.add l
                (Slice.make_jaux
                   ~jaux:(Contrib.get l genv.jauxs)
                   ~self:(Contrib.get l mine) ~joint ~other)
                st)
            (Aux.join (Contrib.get l around) (Contrib.get l genv.ext_other))))
    genv.joints (Some State.empty)

(* Decompose an action's output state back into joints and self
   contributions.  A view label whose joint, jaux and self all come back
   physically unchanged is not rewritten at all: the maps keep sharing
   the old bindings and the hash contributions cancel (an action's view
   often spans labels it only reads). *)
let unview st ~(genv : genv) ~(mine : Contrib.t) =
  let rec go j c m gh = function
    | [] -> ({ genv with joints = j; jauxs = c; ghash = gh }, m)
    | l :: tl ->
      let joint' = State.joint l st in
      let jaux' = State.jaux l st in
      let self' = State.self l st in
      let joint0 = Label.Map.find_opt l j in
      let jaux0 = Contrib.get l c in
      let joint_same =
        match joint0 with Some h -> h == joint' | None -> false
      in
      if joint_same && jaux0 == jaux' && Contrib.get l m == self' then
        go j c m gh tl
      else
        let gh =
          gh
          lxor (match joint0 with Some h -> mix_joint l h | None -> 0)
          lxor mix_joint l joint'
          lxor mix_jaux l jaux0
          lxor mix_jaux l jaux'
        in
        go (Label.Map.add l joint' j) (Contrib.set l jaux' c)
          (Contrib.set l self' m) gh tl
  in
  go genv.joints genv.jauxs mine genv.ghash (State.labels st)

let as_ret : type a. a rt -> a option = function
  | RRet v -> Some v
  | RBind _ | RAct _ | RPar _ | RParP _ | RHideP _ | RHideI _ -> None

type 'a norm = Norm of genv * Contrib.t * 'a rt | Norm_crash of Crash.t

(* Normalization crashes are ghost-algebra failures: contribution joins,
   fork splits and hide installation are exactly the auxiliary-state
   bookkeeping FCSL's ghosts perform. *)
let ghost msg = Norm_crash (Crash.make Crash.Ghost_algebra msg)

(* Eager administrative reduction: monadic redexes, joins, hide
   installation/uninstallation.  Returns a tree whose every leaf is an
   [RAct] (or the whole tree is [RRet]).  A subtree with nothing to
   reduce comes back physically unchanged, so a configuration's key can
   reuse the parent's for every part a move did not touch. *)
let rec normalize : type a. genv -> Contrib.t -> a rt -> a norm =
 fun genv mine rt ->
  match rt with
  | RRet _ -> Norm (genv, mine, rt)
  | RAct _ -> Norm (genv, mine, rt)
  | RBind (p, k) -> (
    match normalize genv mine p with
    | Norm_crash _ as c -> c
    | Norm (genv, mine, RRet v) -> normalize genv mine (inject (k v))
    | Norm (genv, mine, p') ->
      Norm (genv, mine, if p' == p then rt else RBind (p', k)))
  | RPar (l, cl, r, cr) -> (
    match normalize genv cl l with
    | Norm_crash _ as c -> c
    | Norm (genv, cl', l') -> (
      match normalize genv cr r with
      | Norm_crash _ as c -> c
      | Norm (genv, cr', r') -> (
        match (l', r') with
        | RRet vl, RRet vr -> (
          match Contrib.join_all [ mine; cl'; cr' ] with
          | Some mine -> Norm (genv, mine, RRet (vl, vr))
          | None -> ghost "par join: incompatible contributions")
        | _ ->
          let same = l' == l && cl' == cl && r' == r && cr' == cr in
          Norm (genv, mine, if same then rt else RPar (l', cl', r', cr')))))
  | RParP (split, p, q) -> (
    match split mine with
    | None -> ghost "par: requested fork split unavailable"
    | Some (reserve, cl, cr) -> (
      match Contrib.join_all [ reserve; cl; cr ] with
      | Some total when Contrib.equal total mine ->
        normalize genv reserve (RPar (inject p, cl, inject q, cr))
      | Some _ | None -> ghost "par: fork split does not rejoin"))
  | RHideP (spec, body) -> install genv mine spec body
  | RHideI (spec, body) -> (
    match normalize genv mine body with
    | Norm_crash _ as c -> c
    | Norm (genv, mine, RRet v) -> uninstall genv mine spec v
    | Norm (genv, mine, body') ->
      Norm (genv, mine, if body' == body then rt else RHideI (spec, body')))

(* Installation (Section 3.5): carve the decorated subheap out of this
   thread's private heap and erect the new concurroid's slice over it,
   with the given initial [self] and unit [other] (no interference). *)
and install : type a. genv -> Contrib.t -> Prog.hide_spec -> a Prog.t -> a norm
    =
 fun genv mine spec body ->
  let l = Concurroid.label spec.hs_conc in
  if Label.Map.mem l genv.joints then
    ghost (Fmt.str "hide: label %a already installed" Label.pp l)
  else
    match Aux.as_heap (Contrib.get spec.hs_priv mine) with
    | None -> ghost "hide: private contribution is not a heap"
    | Some priv_heap ->
      let donated = spec.hs_decor priv_heap in
      if not (Heap.subheap donated priv_heap) then
        ghost "hide: decoration selects outside the private heap"
      else
        let slice =
          Slice.make_jaux ~jaux:spec.hs_jaux ~self:spec.hs_init ~joint:donated
            ~other:Aux.Unit
        in
        if not (Concurroid.coh spec.hs_conc slice) then
          ghost
            (Fmt.str "hide: initial %s slice incoherent"
               (Concurroid.name spec.hs_conc))
        else
          let remaining = Heap.diff priv_heap donated in
          let genv =
            {
              genv with
              joints = Label.Map.add l donated genv.joints;
              jauxs = Contrib.set l spec.hs_jaux genv.jauxs;
              world = World.entangle genv.world (World.of_list [ spec.hs_conc ]);
              ghash =
                genv.ghash lxor mix_joint l donated
                lxor mix_jaux l (Contrib.get l genv.jauxs)
                lxor mix_jaux l spec.hs_jaux;
            }
          in
          let mine =
            mine
            |> Contrib.set spec.hs_priv (Aux.heap remaining)
            |> Contrib.set l spec.hs_init
          in
          normalize genv mine (RHideI (spec, inject body))

(* Uninstallation: return the hidden label's real heap (joint plus any
   heap-sorted auxiliaries) to the thread's private heap and retract the
   concurroid from the world. *)
and uninstall : type a. genv -> Contrib.t -> Prog.hide_spec -> a -> a norm =
 fun genv mine spec v ->
  let l = Concurroid.label spec.hs_conc in
  let joint = Option.value (Label.Map.find_opt l genv.joints) ~default:Heap.empty in
  let self_aux = Contrib.get l mine in
  let other_aux = Contrib.get l genv.ext_other in
  match (State.heap_part self_aux, State.heap_part other_aux) with
  | Some hs, Some ho -> (
    match
      Option.bind (Heap.union joint hs) (fun h -> Heap.union h ho)
    with
    | None -> ghost "unhide: colliding heaps"
    | Some returned -> (
      match Aux.as_heap (Contrib.get spec.hs_priv mine) with
      | None -> ghost "unhide: private contribution is not a heap"
      | Some priv_heap -> (
        match Heap.union priv_heap returned with
        | None -> ghost "unhide: returned heap collides with private"
        | Some priv' ->
          let genv =
            {
              genv with
              joints = Label.Map.remove l genv.joints;
              jauxs = Contrib.remove l genv.jauxs;
              ext_other = Contrib.remove l genv.ext_other;
              world =
                World.of_list
                  (List.filter
                     (fun c -> not (Label.equal (Concurroid.label c) l))
                     (World.concurroids genv.world));
              ghash =
                genv.ghash
                lxor (match Label.Map.find_opt l genv.joints with
                     | Some h -> mix_joint l h
                     | None -> 0)
                lxor mix_jaux l (Contrib.get l genv.jauxs)
                lxor mix_ext l (Contrib.get l genv.ext_other);
            }
          in
          let mine =
            mine |> Contrib.remove l |> Contrib.set spec.hs_priv (Aux.heap priv')
          in
          Norm (genv, mine, RRet v))))
  | _ -> ghost "unhide: auxiliary state has no heap erasure"

(* One scheduling move: an atomic action at some leaf.  Returns all
   enabled moves as continuations, or a crash witness if some enabled
   leaf is unsafe (a verification failure). *)
type 'a move = {
  mv_name : string;
  mv_next : (genv * Contrib.t * 'a rt, Crash.t) result;
}

let move_name mv = mv.mv_name
let move_next mv = mv.mv_next

let rec moves : type a. genv -> Contrib.t -> Contrib.t -> a rt -> a move list =
 fun genv around mine rt ->
  match rt with
  | RRet _ -> []
  | RParP _ -> [] (* eliminated by normalize *)
  | RHideP _ -> [] (* eliminated by normalize *)
  | RAct a -> (
    match view genv ~around ~mine with
    | None ->
      [
        {
          mv_name = Action.name a;
          mv_next = Error (Crash.make Crash.Ghost_algebra "invalid subjective view");
        };
      ]
    | Some st ->
      if not (Action.safe a st) then
        [
          {
            mv_name = Action.name a;
            mv_next =
              Error
                (Crash.make Crash.Unsafe_action
                   (Fmt.str "action %s unsafe in %a" (Action.name a) State.pp st));
          };
        ]
      else if not (Action.enabled a st) then [] (* blocked, not crashed *)
      else
        let r, st' = Action.step_exn a st in
        let genv', mine' = unview st' ~genv ~mine in
        [ { mv_name = Action.name a; mv_next = Ok (genv', mine', RRet r) } ])
  | RBind (p, k) ->
    List.map
      (fun mv ->
        {
          mv with
          mv_next =
            Result.map (fun (g, m, p') -> (g, m, RBind (p', k))) mv.mv_next;
        })
      (moves genv around mine p)
  | RHideI (spec, body) ->
    List.map
      (fun mv ->
        {
          mv with
          mv_next =
            Result.map (fun (g, m, b') -> (g, m, RHideI (spec, b'))) mv.mv_next;
        })
      (moves genv around mine body)
  | RPar (l, cl, r, cr) ->
    let around_of sibling_contrib sibling_tree =
      Option.bind (inner_contribs sibling_tree) (fun inner ->
          Contrib.join_all [ around; mine; sibling_contrib; inner ])
    in
    let incompatible () =
      {
        mv_name = "par";
        mv_next =
          Error (Crash.make Crash.Ghost_algebra "incompatible contributions");
      }
    in
    let left =
      match around_of cr r with
      | None -> [ incompatible () ]
      | Some around_l ->
        List.map
          (fun mv ->
            {
              mv with
              mv_next =
                Result.map
                  (fun (g, m_l, l') -> (g, mine, RPar (l', m_l, r, cr)))
                  mv.mv_next;
            })
          (moves genv around_l cl l)
    in
    let right =
      match around_of cl l with
      | None -> [ incompatible () ]
      | Some around_r ->
        List.map
          (fun mv ->
            {
              mv with
              mv_next =
                Result.map
                  (fun (g, m, r') -> (g, mine, RPar (l, cl, r', m)))
                  mv.mv_next;
            })
          (moves genv around_r cr r)
    in
    left @ right

(* Environment interference: at any label open to interference, the
   environment may take any transition of that label's concurroid from
   its own viewpoint ([self] = external contribution, [other] = the sum
   of all our threads' contributions).  From the program's side this
   changes [joint] and the external contribution, never our selves.

   Move names are lazy: exhaustive exploration only renders a schedule
   when it reports a crash, so the (hot) happy paths never pay for the
   formatting. *)
type env_move = { ev_name : string Lazy.t; ev_genv : genv }

let env_moves_aux : type a. genv -> Contrib.t -> a rt -> env_move list =
 fun genv mine rt ->
  match Option.bind (inner_contribs rt) (Contrib.join mine) with
  | None -> []
  | Some ours ->
    List.concat_map
      (fun c ->
        let l = Concurroid.label c in
        if not (Label.Set.mem l genv.interfere) then []
        else
          match Label.Map.find_opt l genv.joints with
          | None -> []
          | Some joint ->
            let jaux0 = Contrib.get l genv.jauxs in
            let ext0 = Contrib.get l genv.ext_other in
            let env_slice =
              Slice.make_jaux ~jaux:jaux0 ~self:ext0 ~joint
                ~other:(Contrib.get l ours)
            in
            List.map
              (fun (n, s') ->
                {
                  ev_name = lazy (Fmt.str "env:%s.%s" (Concurroid.name c) n);
                  ev_genv =
                    {
                      genv with
                      joints = Label.Map.add l (Slice.joint s') genv.joints;
                      jauxs = Contrib.set l (Slice.jaux s') genv.jauxs;
                      ext_other =
                        Contrib.set l (Slice.self s') genv.ext_other;
                      ghash =
                        genv.ghash lxor mix_joint l joint
                        lxor mix_joint l (Slice.joint s')
                        lxor mix_jaux l jaux0
                        lxor mix_jaux l (Slice.jaux s')
                        lxor mix_ext l ext0
                        lxor mix_ext l (Slice.self s');
                    };
                })
              (Concurroid.steps c env_slice))
      (World.concurroids genv.world)

let env_moves genv mine rt =
  List.map (fun ev -> (Lazy.force ev.ev_name, ev.ev_genv)) (env_moves_aux genv mine rt)

(* Stuck-state detection.  When every program leaf is blocked on a
   disabled action, the configuration is either a genuine deadlock or
   merely waiting on environment interference.  [confirms_stuck] closes
   over the environment's transitions from the current shared state —
   deliberately ignoring the remaining interference budget, whose
   exhaustion must never manufacture a deadlock — and reports a genuine
   deadlock only when no reachable environment state re-enables any
   program move.  The closure is bounded; past [stuck_closure_cap]
   distinct shared states the answer is conservatively "not stuck"
   (divergence, exactly as before).  Labels closed to interference
   ([genv.interfere]) cannot be changed by the environment, so a
   no-interference verification confirms immediately. *)

let stuck_closure_cap = 512

(* [Label.Map.equal Heap.equal] without its enumeration cells: the same
   label count, and every binding of [j1] bound in [j2] to an equal heap
   ([Heap.equal] answers physically shared heaps in O(1)). *)
let joints_equal (j1 : Heap.t Label.Map.t) j2 =
  j1 == j2
  || Label.Map.cardinal j1 = Label.Map.cardinal j2
     && Label.Map.for_all
          (fun l h ->
            match Label.Map.find l j2 with
            | h' -> Heap.equal h h'
            | exception Not_found -> false)
          j1

let genv_same a b =
  a.ghash = b.ghash
  && joints_equal a.joints b.joints
  && Contrib.equal a.jauxs b.jauxs
  && Contrib.equal a.ext_other b.ext_other

exception Not_stuck

let confirms_stuck : type a. genv -> Contrib.t -> a rt -> bool =
 fun genv0 mine rt ->
  let visited = ref [ genv0 ] in
  let nvisited = ref 1 in
  let rec bfs = function
    | [] -> ()
    | g :: rest ->
      let fresh =
        List.filter_map
          (fun ev ->
            let g' = ev.ev_genv in
            (* Any program move becoming schedulable — including an
               unsafe one, which the real search would report as a
               crash — counts as progress. *)
            if moves g' Contrib.empty mine rt <> [] then raise Not_stuck;
            if List.exists (genv_same g') !visited then None
            else begin
              if !nvisited >= stuck_closure_cap then raise Not_stuck;
              visited := g' :: !visited;
              incr nvisited;
              Some g'
            end)
          (env_moves_aux g mine rt)
      in
      bfs (rest @ fresh)
  in
  match bfs [ genv0 ] with () -> true | exception Not_stuck -> false

(* The held-lock witness: lock-shaped world concurroids whose holding
   observer is true of the slice seen by the pooled program
   contributions — some thread of ours holds them. *)
let held_locks genv mine rt =
  match Option.bind (inner_contribs rt) (Contrib.join mine) with
  | None -> []
  | Some ours ->
    List.filter_map
      (fun c ->
        match Concurroid.lock_info c with
        | None -> None
        | Some _ -> (
          let l = Concurroid.label c in
          match Label.Map.find_opt l genv.joints with
          | None -> None
          | Some joint ->
            let s =
              Slice.make_jaux
                ~jaux:(Contrib.get l genv.jauxs)
                ~self:(Contrib.get l ours) ~joint
                ~other:(Contrib.get l genv.ext_other)
            in
            if Concurroid.held c s then Some (Label.name l) else None))
      (World.concurroids genv.world)

(* The blocked leaves of an all-blocked tree: every action leaf with a
   valid view that is safe but disabled, with its declared footprint
   (to name the lock it blocks on).  Only called off the hot path, when
   [moves] is already known to be empty. *)
let rec blocked_at : type a.
    genv -> Contrib.t -> Contrib.t -> a rt -> (string * Footprint.t) list =
 fun genv around mine rt ->
  match rt with
  | RRet _ | RParP _ | RHideP _ -> []
  | RAct a -> (
    match view genv ~around ~mine with
    | None -> []
    | Some st ->
      if Action.safe a st && not (Action.enabled a st) then
        [ (Action.name a, Action.footprint a) ]
      else [])
  | RBind (p, _) -> blocked_at genv around mine p
  | RHideI (_, body) -> blocked_at genv around mine body
  | RPar (l, cl, r, cr) ->
    let around_of sibling_contrib sibling_tree =
      Option.bind (inner_contribs sibling_tree) (fun inner ->
          Contrib.join_all [ around; mine; sibling_contrib; inner ])
    in
    (match around_of cr r with
    | None -> []
    | Some around_l -> blocked_at genv around_l cl l)
    @
    (match around_of cl l with
    | None -> []
    | Some around_r -> blocked_at genv around_r cr r)

(* The stable witness message the deadlock crash carries.  The static
   analyzer's differential tests parse the lock names back out of it
   (see [Deadlock.locks_of_witness] in fcsl.analysis), so the
   "held locks: {...}" and "blocked: [...]" shapes are load-bearing. *)
let deadlock_message genv mine rt =
  let lock_labels =
    List.filter_map
      (fun c ->
        if Concurroid.lock_info c <> None then Some (Concurroid.label c)
        else None)
      (World.concurroids genv.world)
  in
  let blocked =
    List.map
      (fun (n, fp) ->
        match
          List.find_opt
            (fun l ->
              match Footprint.labels fp with
              | Some ls -> Label.Set.mem l ls
              | None -> false)
            lock_labels
        with
        | Some l -> n ^ " awaiting " ^ Label.name l
        | None -> n)
      (blocked_at genv Contrib.empty mine rt)
  in
  let held = List.sort String.compare (held_locks genv mine rt) in
  Fmt.str
    "deadlock: every program move is disabled and no environment step \
     re-enables one; held locks: {%s}; blocked: [%s]"
    (String.concat ", " held)
    (String.concat ", " blocked)

(* Configuration fingerprinting, the backbone of memoized exploration.

   A configuration is (genv, mine, rt).  The state-like parts (joint
   heaps, auxiliary contributions) have canonical semantic compare/hash
   functions.  The thread tree does not: its leaves embed OCaml closures
   (bind continuations, actions) that two interleavings of the same
   commuting steps rebuild independently, so physical identity misses
   them.  We identify tree atoms by a per-exploration registry that
   compares the runtime representations structurally — descending
   through blocks and, crucially, through closures, whose code pointers
   are compared as raw words and whose captured environments are
   compared recursively.  Same code and structurally equal captures
   means the same behaviour (captures are immutable throughout this
   codebase), so identification is sound; anything unrecognized
   (pathological depth, infix pointers of mutually recursive closure
   blocks) conservatively compares unequal, which only forfeits a
   pruning opportunity. *)
(* The shape of a thread tree, with atoms replaced by registry codes
   and the per-branch contributions kept as comparable values.  Keys
   are hash-consed through the same per-exploration registry that
   identifies the atoms: every structurally equal shape is represented
   by one physical node carrying its precomputed hash, so memo-table
   equality on the tree part degrades to pointer identity and hashing
   to a field read.  [ks] says every atom id in the subtree is
   immediate or registered (see [Keyer.stable]), so keying the same
   objects again would return this very node. *)
type rt_key = { kn : knode; kh : int; ks : bool }

and knode =
  | KRet of int
  | KAct of int
  | KBind of rt_key * int
  | KPar of rt_key * Contrib.t * rt_key * Contrib.t
  | KParP of int * int * int
  | KHideP of int * int
  | KHideI of int * rt_key

module Keyer = struct
  (* Start-of-environment index of a closure block, decoded from the
     closinfo word as laid out by the OCaml 5 runtime: arity in the top
     8 bits, start-of-env in the remaining bits, shifted by 1. *)
  let start_env (o : Obj.t) =
    let info = Obj.raw_field o 1 in
    Nativeint.to_int
      (Nativeint.shift_right_logical (Nativeint.shift_left info 8) 9)

  let raw_prefix_eq a b n =
    let rec go i =
      i >= n
      || (Nativeint.equal (Obj.raw_field a i) (Obj.raw_field b i)
         && go (i + 1))
    in
    go 0

  (* Structural equality of runtime representations.  [fuel] bounds the
     number of visited nodes (cycles through recursive closures, huge
     captured structures); exhaustion answers [false]. *)
  let rec obj_eq fuel (a : Obj.t) (b : Obj.t) =
    a == b
    || (!fuel > 0
       &&
       (decr fuel;
        (not (Obj.is_int a))
        && (not (Obj.is_int b))
        &&
        let ta = Obj.tag a in
        ta = Obj.tag b
        &&
        if ta = Obj.string_tag then String.equal (Obj.obj a) (Obj.obj b)
        else if ta = Obj.double_tag then Float.equal (Obj.obj a) (Obj.obj b)
        else if ta = Obj.double_array_tag then
          (Obj.obj a : float array) = (Obj.obj b : float array)
        else if ta = Obj.custom_tag then
          (try Stdlib.compare a b = 0 with Invalid_argument _ -> false)
        else if ta = Obj.closure_tag then
          let sa = Obj.size a in
          sa = Obj.size b
          &&
          let se = start_env a in
          2 <= se && se <= sa && raw_prefix_eq a b se
          && fields_eq fuel a b se sa
        else if ta = Obj.infix_tag then false
        else if ta < Obj.no_scan_tag then
          let sa = Obj.size a in
          sa = Obj.size b && fields_eq fuel a b 0 sa
        else false))

  and fields_eq fuel a b i n =
    i >= n
    || (obj_eq fuel (Obj.field a i) (Obj.field b i)
       && fields_eq fuel a b (i + 1) n)

  let eq_fuel = 4096

  type t = {
    buckets : (int, (Obj.t * int) list) Hashtbl.t;
    mutable next : int;
    mutable stored : int;
    mutable ambiguous : bool;
        (* an atom was registered after a comparison ran out of fuel *)
    kbuckets : (int, rt_key list) Hashtbl.t; (* hash-consed tree keys *)
    mutable world : World.t; (* the last world keyed, and its atom ids *)
    mutable world_ids : int list;
  }

  (* Registered atoms are kept alive for the whole exploration, so cap
     the registry; atoms past the cap get fresh (never-matching) ids. *)
  let max_stored = 1 lsl 16

  let create () =
    {
      buckets = Hashtbl.create 256;
      next = 0;
      stored = 0;
      ambiguous = false;
      kbuckets = Hashtbl.create 256;
      world = World.of_list [];
      world_ids = [];
    }

  (* The id of the newest registered atom equal to [o] in [bucket], or
     [miss] if there is none; [miss] becomes -2 once a comparison has
     run out of fuel (and so may have missed an equal atom). *)
  let rec lookup o bucket miss =
    match bucket with
    | [] -> miss
    | (o', id) :: rest ->
      let fuel = ref eq_fuel in
      if obj_eq fuel o o' then id
      else lookup o rest (if !fuel > 0 then miss else -2)

  (* Immediates map to odd codes, registered blocks to even ones, so the
     two can never collide.  [Hashtbl.hash] is total (closures hash by
     code address and captured environment) and consistent with
     [obj_eq]-equal values in practice; a stray inconsistency would only
     duplicate an atom id, never identify distinct atoms. *)
  let atom t (o : Obj.t) : int =
    if Obj.is_int o then (2 * (Obj.obj o : int)) + 1
    else begin
      let h = Hashtbl.hash o in
      let bucket = Option.value (Hashtbl.find_opt t.buckets h) ~default:[] in
      let found = lookup o bucket (-1) in
      if found >= 0 then found
      else begin
        let id = 2 * t.next in
        t.next <- t.next + 1;
        if t.stored < max_stored then begin
          Hashtbl.replace t.buckets h ((o, id) :: bucket);
          t.stored <- t.stored + 1;
          if found = -2 then t.ambiguous <- true
        end;
        id
      end
    end

  (* Immediate, or registered: ids are handed out in order and
     registration stops for good at [max_stored]. *)
  let registered id = id land 1 = 1 || id < 2 * max_stored

  (* Whether [atom] would return [id] again for the object it was
     computed for.  A registered object's lookup resolves to the newest
     registered atom equal to it, and that stays the same one because
     equality of runtime representations is an equivalence — unless a
     comparison out of fuel let an equal atom register as new
     ([ambiguous]); from then on nothing is reused. *)
  let stable t id = id land 1 = 1 || (registered id && not t.ambiguous)

  (* Hash-consing of tree keys.  Children are compared by pointer only:
     [cons] is the sole constructor, so within one registry equal
     subtrees are already shared.  Per-branch contributions still
     compare semantically — two [Contrib.equal] values unify on the
     first-seen representative, exactly matching the memo table's old
     structural equality. *)
  let node_hash = function
    | KRet i -> (3 * 33) lxor i
    | KAct i -> (5 * 33) lxor i
    | KBind (p, i) -> (((7 * 33) lxor p.kh) * 33) lxor i
    | KPar (l, cl, r, cr) ->
      (((((((11 * 33) lxor l.kh) * 33) lxor Contrib.hash cl) * 33) lxor r.kh)
       * 33)
      lxor Contrib.hash cr
    | KParP (s, p, q) -> (((((13 * 33) lxor s) * 33) lxor p) * 33) lxor q
    | KHideP (s, b) -> (((17 * 33) lxor s) * 33) lxor b
    | KHideI (s, b) -> (((19 * 33) lxor s) * 33) lxor b.kh

  let node_eq n1 n2 =
    match (n1, n2) with
    | KRet i, KRet j | KAct i, KAct j -> i = j
    | KBind (p, i), KBind (q, j) -> i = j && p == q
    | KPar (l1, cl1, r1, cr1), KPar (l2, cl2, r2, cr2) ->
      l1 == l2 && r1 == r2 && Contrib.equal cl1 cl2 && Contrib.equal cr1 cr2
    | KParP (s1, p1, q1), KParP (s2, p2, q2) -> s1 = s2 && p1 = p2 && q1 = q2
    | KHideP (s1, b1), KHideP (s2, b2) -> s1 = s2 && b1 = b2
    | KHideI (s1, b1), KHideI (s2, b2) -> s1 = s2 && b1 == b2
    | (KRet _ | KAct _ | KBind _ | KPar _ | KParP _ | KHideP _ | KHideI _), _
      ->
      false

  let node_stable = function
    | KRet i | KAct i -> registered i
    | KBind (p, i) -> p.ks && registered i
    | KPar (l, _, r, _) -> l.ks && r.ks
    | KParP (s, p, q) -> registered s && registered p && registered q
    | KHideP (s, b) -> registered s && registered b
    | KHideI (s, b) -> registered s && b.ks

  let cons t kn =
    let h = node_hash kn in
    let bucket = Option.value (Hashtbl.find_opt t.kbuckets h) ~default:[] in
    match List.find_opt (fun k -> node_eq k.kn kn) bucket with
    | Some k -> k
    | None ->
      let k = { kn; kh = h; ks = node_stable kn } in
      Hashtbl.replace t.kbuckets h (k :: bucket);
      k

  (* The atom ids of a world's concurroids, in world order.  The world
     changes only at hide installation and uninstallation, so the last
     one's ids are kept and reused while [genv.world] is physically the
     same. *)
  let world_ids t w =
    if w == t.world && not t.ambiguous then t.world_ids
    else begin
      let ids = List.map (fun c -> atom t (Obj.repr c)) (World.concurroids w) in
      if List.for_all registered ids then begin
        t.world <- w;
        t.world_ids <- ids
      end;
      ids
    end
end

type keyer = Keyer.t

let new_keyer = Keyer.create

(* The previous key of a tree keyed from scratch. *)
let no_prev = { kn = KRet (-1); kh = 0; ks = false }

(* The id of [v], reusing [i0] when [v] is physically the [v0] that [i0]
   was computed for. *)
let reuse_atom kr reuse (v : Obj.t) (v0 : Obj.t) i0 =
  if reuse && v == v0 && Keyer.stable kr i0 then i0 else Keyer.atom kr v

(* Keying is incremental along a move.  [prev] is the tree the move
   started from and [pk] its key ([no_prev]: key from scratch).  The walk
   follows [rt] and [prev] together: a physically unchanged subtree
   reuses its key, a physically unchanged closure or action its atom id,
   so a move pays for the part of the tree it rebuilt, not for the whole
   tree.  Whatever is reused is what keying from scratch would return
   (see [Keyer.stable]).  Children and atoms are keyed right to left, the
   order keys were always built in, so atoms are numbered as before.
   The pending forms [RParP]/[RHideP] never survive normalization and
   are always keyed afresh. *)
let rec key_tree : type a b. keyer -> b rt -> rt_key -> a rt -> rt_key =
 fun kr prev pk rt ->
  let reuse = pk != no_prev && not kr.Keyer.ambiguous in
  if reuse && pk.ks && Obj.repr rt == Obj.repr prev then pk
  else
    match (rt, prev, pk.kn) with
    | RRet v, RRet v0, KRet i0 ->
      Keyer.cons kr (KRet (reuse_atom kr reuse (Obj.repr v) (Obj.repr v0) i0))
    | RRet v, _, _ -> Keyer.cons kr (KRet (Keyer.atom kr (Obj.repr v)))
    | RAct a, RAct a0, KAct i0 ->
      Keyer.cons kr (KAct (reuse_atom kr reuse (Obj.repr a) (Obj.repr a0) i0))
    | RAct a, _, _ -> Keyer.cons kr (KAct (Keyer.atom kr (Obj.repr a)))
    | RBind (p, k), RBind (p0, k0), KBind (kp0, i0) ->
      let i = reuse_atom kr reuse (Obj.repr k) (Obj.repr k0) i0 in
      Keyer.cons kr (KBind (key_tree kr p0 kp0 p, i))
    | RBind (p, k), _, _ ->
      let i = Keyer.atom kr (Obj.repr k) in
      Keyer.cons kr (KBind (key_tree kr p no_prev p, i))
    | RPar (l, cl, r, cr), RPar (l0, _, r0, _), KPar (kl0, _, kr0, _) ->
      let kright = key_tree kr r0 kr0 r in
      Keyer.cons kr (KPar (key_tree kr l0 kl0 l, cl, kright, cr))
    | RPar (l, cl, r, cr), _, _ ->
      let kright = key_tree kr r no_prev r in
      Keyer.cons kr (KPar (key_tree kr l no_prev l, cl, kright, cr))
    | RHideI (s, b), RHideI (s0, b0), KHideI (is0, kb0) ->
      let kb = key_tree kr b0 kb0 b in
      Keyer.cons kr
        (KHideI (reuse_atom kr reuse (Obj.repr s) (Obj.repr s0) is0, kb))
    | RHideI (s, b), _, _ ->
      let kb = key_tree kr b no_prev b in
      Keyer.cons kr (KHideI (Keyer.atom kr (Obj.repr s), kb))
    | RParP (s, p, q), _, _ ->
      let iq = Keyer.atom kr (Obj.repr q) in
      let ip = Keyer.atom kr (Obj.repr p) in
      Keyer.cons kr (KParP (Keyer.atom kr (Obj.repr s), ip, iq))
    | RHideP (s, b), _, _ ->
      let ib = Keyer.atom kr (Obj.repr b) in
      Keyer.cons kr (KHideP (Keyer.atom kr (Obj.repr s), ib))

let rt_key ?prev kr rt =
  match prev with
  | None -> key_tree kr rt no_prev rt
  | Some (rt0, k0) -> key_tree kr rt0 k0 rt

type config_key = {
  ck_rt : rt_key;
  ck_joints : Heap.t Label.Map.t;
  ck_jauxs : Contrib.t;
  ck_ext : Contrib.t;
  ck_world : int list; (* concurroid identities, in world order *)
  ck_mine : Contrib.t;
  ck_hash : int; (* precomputed: keys are hashed more than once *)
}

(* The key of a configuration whose tree is keyed [ck_rt]. *)
let key_of (kr : keyer) ck_rt (genv : genv) (mine : Contrib.t) =
  let ck_world = Keyer.world_ids kr genv.world in
  (* The shared-state hash is the genv's incrementally maintained
     fingerprint — no map re-folding here; only the (small) root
     contribution is hashed per key. *)
  let ck_hash =
    List.fold_left
      (fun acc w -> (acc * 33) lxor w)
      ((((ck_rt.kh * 33) lxor genv.ghash) * 33) lxor Contrib.hash mine)
      ck_world
  in
  {
    ck_rt;
    ck_joints = genv.joints;
    ck_jauxs = genv.jauxs;
    ck_ext = genv.ext_other;
    ck_world;
    ck_mine = mine;
    ck_hash;
  }

let config_key ?prev kr genv mine rt = key_of kr (rt_key ?prev kr rt) genv mine

let config_key_rt k = k.ck_rt
let config_key_hash k = k.ck_hash

(* Every part tries physical equality first: a move leaves the parts it
   did not touch physically shared. *)
let config_key_equal k1 k2 =
  k1.ck_hash = k2.ck_hash
  && k1.ck_rt == k2.ck_rt
  && joints_equal k1.ck_joints k2.ck_joints
  && Contrib.equal k1.ck_jauxs k2.ck_jauxs
  && Contrib.equal k1.ck_ext k2.ck_ext
  && (k1.ck_world == k2.ck_world
     || List.equal Int.equal k1.ck_world k2.ck_world)
  && Contrib.equal k1.ck_mine k2.ck_mine

let fingerprint kr genv mine rt = config_key_hash (config_key kr genv mine rt)

(* Each distinct key has one slot: its entries, newest first. *)
module Memo = Hashtbl.Make (struct
  type t = config_key

  let equal = config_key_equal
  let hash = config_key_hash
end)

(* Exploration. *)

type 'a outcome =
  | Finished of 'a * State.t (* result and final subjective root view *)
  | Crashed of Crash.t
  | Diverged (* fuel exhausted along this path *)

let pp_outcome pp_res ppf = function
  | Finished (r, st) -> Fmt.pf ppf "finished %a in %a" pp_res r State.pp st
  | Crashed c -> Fmt.pf ppf "CRASH: %a" Crash.pp c
  | Diverged -> Fmt.string ppf "diverged (out of fuel)"

exception Stop

(* Render a schedule prefix for counterexample reports (oldest step
   first).  Names are accumulated lazily, newest first, and only forced
   here, on the crash paths. *)
let trace_steps trace = List.rev_map Lazy.force trace

(* What the memo table remembers about an exhausted configuration: the
   remaining fuel and environment budget it was explored with, what its
   subtree actually NEEDED of them, and the outcomes the subtree
   recorded (in order).

   A revisit is pruned by replaying the cached outcomes when the replay
   is provably exact — i.e. a fresh exploration would record the same
   outcome sequence.  That holds in two cases:

   - the revisit has the same remaining fuel and budget (commuting-step
     diamonds: equal move multisets reach equal configurations at equal
     depth and equal env usage); or
   - the cached subtree was never truncated and the revisit's allowances
     cover its recorded needs: nodes below the deepest point and env
     branches beyond the low-water budget simply do not exist, so any
     larger-or-equal allowance explores the identical tree.  ([e_need_*]
     is [max_int] when the subtree WAS cut by that limit, disabling this
     arm.)

   Either way the replayed outcomes are exactly the naive ones, so
   failure sets, outcome counts and completeness are preserved; only the
   schedule annotations inside crash messages keep their first-discovery
   trace. *)
type 'a memo_entry = {
  e_fuel : int; (* remaining fuel at the recorded visit *)
  e_budget : int; (* env budget at the recorded visit *)
  e_need_fuel : int; (* deepest relative depth reached; max_int if cut *)
  e_need_env : int; (* most env steps used on a path; max_int if cut *)
  e_outs : 'a outcome list;
}

(* Entries above this many outcomes are not stored: their memory cost
   outweighs the re-emission saving, and their subtrees are pruned
   through their (cached) children anyway. *)
let memo_store_cap = 4096

(* Exploration statistics: configurations actually entered (same cadence
   as the budget tick), memo behaviour and allocation, exposed so callers
   can report the effect of dedup and measure — not guess — the hot
   path. *)
type explore_stats = {
  mutable es_configs : int; (* configurations entered *)
  mutable es_memo_hits : int; (* memoized subtrees replayed *)
  mutable es_memo_misses : int; (* configurations explored afresh *)
  mutable es_max_bucket : int; (* most distinct keys in one memo bucket *)
  mutable es_minor_words : float; (* Gc.minor_words allocated exploring *)
}

let new_stats () =
  {
    es_configs = 0;
    es_memo_hits = 0;
    es_memo_misses = 0;
    es_max_bucket = 0;
    es_minor_words = 0.;
  }

(* Depth-first exploration of all interleavings (and, when [interference]
   holds, all environment-step insertions), up to [fuel] steps per path
   and at most [max_outcomes] recorded outcomes.  Returns the recorded
   outcomes and a completeness flag.

   With [dedup], configurations are fingerprinted (see {!config_key})
   and a configuration already exhausted at no less fuel and budget is
   pruned by replaying its recorded outcomes.  Interleavings of
   commuting steps — the diamonds behind the exponential blow-up — reach
   identical configurations at identical depth, so this collapses them
   while reporting exactly what the naive search reports. *)
let explore ?(fuel = 64) ?(max_outcomes = 200_000) ?(interference = true)
    ?(env_budget = max_int) ?(dedup = false) ?budget ?journal ?stats
    (genv0 : genv) (mine0 : Contrib.t) (prog : 'a Prog.t) :
    'a outcome list * bool =
  (* Cooperative budget poll, one per explored configuration.  A trip
     aborts through the existing [Stop] path, so (a) [complete] comes
     back [false] exactly as on a [max_outcomes] cut and (b) no memo
     entry is ever stored for a truncated subtree — replay exactness is
     untouched.  The tick hook is also the chaos harness's mid-explore
     fault-injection point; whatever it raises propagates to the
     supervised pool above.  The journal writer rides the same cadence:
     every explored configuration ticks it (appending periodic Frontier
     records), so journaled progress counts exactly mirror budget state
     counts. *)
  let tick_budget () =
    (match journal with None -> () | Some w -> Journal.writer_tick w);
    match budget with
    | None -> ()
    | Some b ->
      Budget.tick b;
      if Budget.tripped b <> None then raise Stop
  in
  let mw0 = match stats with Some _ -> Gc.minor_words () | None -> 0. in
  let outcomes = ref [] in
  let count = ref 0 in
  let record o =
    (* Counterexamples are journaled at discovery — before the search
       (or the process) ends — so a kill never loses found failures. *)
    (match (o, journal) with
    | Crashed c, Some w -> Journal.writer_crash w c
    | _ -> ());
    outcomes := o :: !outcomes;
    incr count;
    if !count >= max_outcomes then raise Stop
  in
  let keyer = Keyer.create () in
  let memo : 'a memo_entry list ref Memo.t =
    Memo.create (if dedup then 4096 else 1)
  in
  (* Subtree-need accounting: absolute-depth high-water mark, budget
     low-water mark, and whether the fuel limit was hit.  Saved and
     restored around every memoized subtree. *)
  let deepest = ref 0 in
  let shallow_budget = ref env_budget in
  let fuel_cut = ref false in
  (* The first [n] cells of the (newest-first) outcome list, oldest
     first: the outcomes a subtree just recorded. *)
  let take_rev n l =
    let rec aux n acc l =
      match l with x :: tl when n > 0 -> aux (n - 1) (x :: acc) tl | _ -> acc
    in
    aux n [] l
  in
  (* [prev] and [pk] are the parent's normalized tree and its key
     ([no_prev] at the root and without dedup), which keying reuses. *)
  let rec go :
      genv -> Contrib.t -> 'a rt -> int -> int -> string Lazy.t list ->
      'a rt -> rt_key -> unit =
   fun genv mine rt depth budget trace prev pk ->
    if depth > !deepest then deepest := depth;
    if budget < !shallow_budget then shallow_budget := budget;
    tick_budget ();
    (match stats with Some s -> s.es_configs <- s.es_configs + 1 | None -> ());
    match normalize genv mine rt with
    | Norm_crash c -> record (Crashed (Crash.with_trace (trace_steps trace) c))
    | Norm (genv, mine, RRet v) -> (
      match view genv ~around:Contrib.empty ~mine with
      | Some st -> record (Finished (v, st))
      | None ->
        record
          (Crashed
             (Crash.make ~trace:(trace_steps trace) Crash.Ghost_algebra
                "final view invalid")))
    | Norm (genv, mine, rt) ->
      if depth >= fuel then begin
        fuel_cut := true;
        record Diverged
      end
      else if not dedup then branch genv mine rt depth budget trace no_prev
      else begin
        let kt = key_tree keyer prev pk rt in
        let key = key_of keyer kt genv mine in
        let remaining = fuel - depth in
        let slot = Memo.find_opt memo key in
        match
          match slot with
          | None -> None
          | Some entries ->
            List.find_opt
              (fun e ->
                (remaining >= e.e_need_fuel && budget >= e.e_need_env)
                || (remaining = e.e_fuel && budget = e.e_budget))
              !entries
        with
        | Some e ->
          (match stats with
          | Some s -> s.es_memo_hits <- s.es_memo_hits + 1
          | None -> ());
          List.iter record e.e_outs;
          (* Fold the pruned subtree's needs into the enclosing one's. *)
          if e.e_need_fuel = max_int then fuel_cut := true
          else if depth + e.e_need_fuel > !deepest then
            deepest := depth + e.e_need_fuel;
          if e.e_need_env = max_int then shallow_budget := 0
          else if budget - e.e_need_env < !shallow_budget then
            shallow_budget := budget - e.e_need_env
        | None ->
          (match stats with
          | Some s -> s.es_memo_misses <- s.es_memo_misses + 1
          | None -> ());
          let n0 = !count in
          let saved_deep = !deepest
          and saved_low = !shallow_budget
          and saved_cut = !fuel_cut in
          deepest := depth;
          shallow_budget := budget;
          fuel_cut := false;
          branch genv mine rt depth budget trace kt;
          (* Reached only when the subtree was exhausted without hitting
             [max_outcomes] (otherwise [Stop] has propagated), so the
             segment just recorded is complete and safe to replay. *)
          let need_fuel = if !fuel_cut then max_int else !deepest - depth in
          let need_env =
            if !shallow_budget = 0 && interference then max_int
            else budget - !shallow_budget
          in
          let added = !count - n0 in
          if added <= memo_store_cap then begin
            let e =
              {
                e_fuel = remaining;
                e_budget = budget;
                e_need_fuel = need_fuel;
                e_need_env = need_env;
                e_outs = take_rev added !outcomes;
              }
            in
            (* A subtree can revisit its own root's key deeper down and
               store it first, so an absent key is probed again. *)
            let slot =
              match slot with None -> Memo.find_opt memo key | Some _ -> slot
            in
            match slot with
            | Some entries -> entries := e :: !entries
            | None -> Memo.add memo key (ref [ e ])
          end;
          deepest := max saved_deep !deepest;
          shallow_budget := min saved_low !shallow_budget;
          fuel_cut := saved_cut || !fuel_cut
      end
  and branch genv mine rt depth budget trace kt =
    let mvs = moves genv Contrib.empty mine rt in
    let envs =
      if interference && budget > 0 then env_moves_aux genv mine rt else []
    in
    if mvs = [] && envs = [] then
      (* Every thread is blocked on a disabled action.  If no
         environment future (budget notwithstanding) re-enables any
         move, this is a genuine deadlock — crash with the held-lock
         and blocked-move witness; otherwise the interference budget
         merely ran out: divergence, as before. *)
      if confirms_stuck genv mine rt then
        record
          (Crashed
             (Crash.make ~trace:(trace_steps trace) Crash.Deadlock
                (deadlock_message genv mine rt)))
      else record Diverged
    else begin
      List.iter
        (fun mv ->
          match mv.mv_next with
          | Error c ->
            record
              (Crashed
                 (Crash.with_trace
                    (trace_steps (Lazy.from_val mv.mv_name :: trace))
                    c))
          | Ok (genv', mine', rt') ->
            go genv' mine' rt' (depth + 1) budget
              (Lazy.from_val mv.mv_name :: trace)
              rt kt)
        mvs;
      List.iter
        (fun ev ->
          go ev.ev_genv mine rt (depth + 1) (budget - 1) (ev.ev_name :: trace)
            rt kt)
        envs
    end
  in
  let complete =
    let rt0 = inject prog in
    match go genv0 mine0 rt0 0 env_budget [] rt0 no_prev with
    | () -> true
    | exception Stop -> false
  in
  (match stats with
  | Some s ->
    if dedup then begin
      let ms = Memo.stats memo in
      if ms.Hashtbl.max_bucket_length > s.es_max_bucket then
        s.es_max_bucket <- ms.Hashtbl.max_bucket_length
    end;
    s.es_minor_words <- s.es_minor_words +. (Gc.minor_words () -. mw0)
  | None -> ());
  (List.rev !outcomes, complete)

(* Run a single schedule chosen by [choose] (given the enabled move
   names, return the index to take); environment moves are not injected.
   Used for deterministic replays such as the Figure 2 staging. *)
let run_with_chooser ?(fuel = 1000)
    ~(choose : step:int -> string list -> int)
    ?(observe : genv -> Contrib.t -> string -> unit = fun _ _ _ -> ())
    (genv0 : genv) (mine0 : Contrib.t) (prog : 'a Prog.t) : 'a outcome =
  let rec go genv mine rt depth =
    match normalize genv mine rt with
    | Norm_crash c -> Crashed c
    | Norm (genv, mine, RRet v) -> (
      match view genv ~around:Contrib.empty ~mine with
      | Some st -> Finished (v, st)
      | None -> Crashed (Crash.make Crash.Ghost_algebra "final view invalid"))
    | Norm (genv, mine, rt) ->
      if depth >= fuel then Diverged
      else
        let mvs = moves genv Contrib.empty mine rt in
        if mvs = [] then Diverged
        else
          let names = List.map (fun mv -> mv.mv_name) mvs in
          let i = choose ~step:depth names in
          let mv = List.nth mvs (i mod List.length mvs) in
          (match mv.mv_next with
          | Error c -> Crashed c
          | Ok (genv', mine', rt') ->
            observe genv' mine' mv.mv_name;
            go genv' mine' rt' (depth + 1))
  in
  go genv0 mine0 (inject prog) 0

(* Run one pseudo-random schedule; with [interference], environment
   steps are inserted with probability ~1/4 at each point. *)
let run_random ?(fuel = 1000) ?(interference = false) ?budget ?journal ~seed
    (genv0 : genv) (mine0 : Contrib.t) (prog : 'a Prog.t) : 'a outcome =
  let rng = Random.State.make [| seed |] in
  (* A budget trip ends the run as [Diverged]: sampled runs are already
     incomplete by construction, and the caller reads the trip off the
     shared {!Budget.t}. *)
  let tripped () =
    (match journal with None -> () | Some w -> Journal.writer_tick w);
    match budget with
    | None -> false
    | Some b ->
      Budget.tick b;
      Budget.tripped b <> None
  in
  let rec go genv mine rt depth =
    if tripped () then Diverged
    else
      match normalize genv mine rt with
      | Norm_crash c -> Crashed c
      | Norm (genv, mine, RRet v) -> (
        match view genv ~around:Contrib.empty ~mine with
        | Some st -> Finished (v, st)
        | None -> Crashed (Crash.make Crash.Ghost_algebra "final view invalid"))
      | Norm (genv, mine, rt) ->
        if depth >= fuel then Diverged
        else begin
          let envs = if interference then env_moves genv mine rt else [] in
          if envs <> [] && Random.State.int rng 4 = 0 then
            let _, genv' = List.nth envs (Random.State.int rng (List.length envs)) in
            go genv' mine rt (depth + 1)
          else
            let mvs = moves genv Contrib.empty mine rt in
            if mvs = [] then Diverged
            else
              let mv = List.nth mvs (Random.State.int rng (List.length mvs)) in
              match mv.mv_next with
              | Error c -> Crashed c
              | Ok (genv', mine', rt') -> go genv' mine' rt' (depth + 1)
        end
  in
  let result = go genv0 mine0 (inject prog) 0 in
  (match (result, journal) with
  | Crashed c, Some w -> Journal.writer_crash w c
  | _ -> ());
  result

(* Helpers for setting up configurations from a subjective initial
   state: the state's selves seed the root thread's contribution, the
   others seed the external environment. *)
let genv_of_state ?(interfere = []) (w : World.t) (st : State.t) :
    genv * Contrib.t =
  let joints =
    List.fold_left
      (fun j l -> Label.Map.add l (State.joint l st) j)
      Label.Map.empty (State.labels st)
  in
  let jauxs =
    List.fold_left
      (fun c l -> Contrib.set l (State.jaux l st) c)
      Contrib.empty (State.labels st)
  in
  let ext_other =
    List.fold_left
      (fun c l -> Contrib.set l (State.other l st) c)
      Contrib.empty (State.labels st)
  in
  let mine =
    List.fold_left
      (fun c l -> Contrib.set l (State.self l st) c)
      Contrib.empty (State.labels st)
  in
  ( {
      joints;
      jauxs;
      ext_other;
      world = w;
      interfere = Label.Set.of_list interfere;
      ghash = ghash_of ~joints ~jauxs ~ext_other;
    },
    mine )
