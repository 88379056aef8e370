(* The spec/concurroid lint pass: executable versions of the obligations
   a careless instance or spec gets wrong — unstable assertions,
   concurroids violating the metatheory laws, dead labels, and [hide]
   scopes colliding with or ignoring their installed label. *)

open Fcsl_core

(* Assertions whose footprint spans an interferable component need a
   stability witness; [Assrt.check_auto] IS the witness search (fast
   path by footprint, semantic check otherwise), so an [Unstable]
   verdict is exactly "spans an interferable component without a
   witness" — reported with the destabilizing environment step. *)
let assertion_stability (w : World.t) ~states (assrts : Assrt.t list) :
    Diag.finding list =
  List.concat_map
    (fun a ->
      match Assrt.check_auto w ~states a with
      | Assrt.Stable_by_footprint | Assrt.Stable_checked -> []
      | Assrt.Unstable (Stability.Unstable { state; step; after }) ->
        [
          Diag.error ~rule:"unstable-assertion" ~loc:(Assrt.name a)
            (Fmt.str
               "assertion footprint spans an interferable component and no \
                stability witness exists")
            ~detail:
              [
                Fmt.str "holds in:  %a" State.pp state;
                Fmt.str "env step:  %s" step;
                Fmt.str "fails in:  %a" State.pp after;
              ];
        ]
      | Assrt.Unstable Stability.Stable -> [] (* not constructible *))
    assrts

(* Concurroid metatheory laws as lint findings: other-fixity, footprint
   preservation (for internal transitions), coherence preservation,
   fork-join closure — [Concurroid.check_laws] run over the instance's
   own enumeration. *)
let concurroid_lint (c : Concurroid.t) : Diag.finding list =
  List.map
    (fun (v : Concurroid.violation) ->
      Diag.error ~rule:"concurroid-law"
        ~loc:(Fmt.str "concurroid %s" (Concurroid.name c))
        v.Concurroid.law
        ~detail:[ "witness: " ^ v.Concurroid.witness ])
    (Concurroid.check_laws c)

(* Action metatheory laws, same shape. *)
let action_lint (w : World.t) (a : 'a Action.t) ~states : Diag.finding list =
  List.map
    (fun (v : Action.violation) ->
      Diag.error ~rule:"action-law"
        ~loc:(Fmt.str "action %s" (Action.name a))
        v.Action.law
        ~detail:[ "witness: " ^ v.Action.witness ])
    (Action.check_laws w a ~states)

(* Dead labels: world labels no supplied program/spec footprint ever
   touches — harmless, but every env step at them is pure exploration
   cost. *)
let dead_labels (w : World.t) ~(used : Footprint.t) : Diag.finding list =
  match Footprint.labels used with
  | None -> [] (* unknown footprint: nothing provable *)
  | Some touched ->
    List.filter_map
      (fun l ->
        if Label.Set.mem l touched then None
        else
          Some
            (Diag.warning ~rule:"dead-label"
               ~loc:(Fmt.str "label %a" Label.pp l)
               "no supplied program or spec footprint touches this world \
                label; interference at it only burns exploration budget"))
      (World.labels w)

(* [hide] hygiene over a program's visible spine: an installed label
   colliding with an ambient one is the entanglement leak (installation
   would crash at runtime; statically it means the hidden scope captures
   interference meant for the ambient label), and a hidden label the
   body's visible footprint never touches is a useless installation. *)
let hide_lints ~loc (w : World.t) (p : 'a Prog.t) : Diag.finding list =
  let ambient = Label.Set.of_list (World.labels w) in
  let rec go : type a. Label.Set.t -> a Prog.t -> Diag.finding list =
   fun scope p ->
    match p with
    | Prog.Ret _ | Prog.Act _ | Prog.Ffix (_, _) -> []
    | Prog.Bind (q, _) -> go scope q
    | Prog.Par (q, r) -> go scope q @ go scope r
    | Prog.ParSplit (_, q, r) -> go scope q @ go scope r
    | Prog.Annot (_, q) -> go scope q
    | Prog.Hide (hs, body) ->
      let l = Concurroid.label hs.Prog.hs_conc in
      let collision =
        if Label.Set.mem l scope then
          [
            Diag.error ~rule:"hide-label-collision" ~loc
              (Fmt.str
                 "hide installs label %a, which is already present in the \
                  enclosing scope — the hidden concurroid would entangle \
                  with (and leak through) the ambient one"
                 Label.pp l);
          ]
        else []
      in
      let unused =
        let fp = Prog.footprint body in
        if (not (Footprint.is_top fp)) && not (Footprint.mem fp l) then
          [
            Diag.warning ~rule:"hide-unused-label" ~loc
              (Fmt.str
                 "hide installs label %a but the body's visible footprint %a \
                  never touches it"
                 Label.pp l Footprint.pp fp);
          ]
        else []
      in
      collision @ unused @ go (Label.Set.add l scope) body
  in
  go ambient p
