(* Effect analysis over the embedded DSL (lib/core/prog.ml).

   Inference proper is [Prog.footprint] — action leaves carry declared
   envelopes, [par]/[hide] spines combine them, and the opaque closures
   of [Bind]/[Ffix] are [Top] unless an [Annot] declares otherwise.
   What the analyzer adds here is the lint that keeps declarations
   coherent: wherever an [Annot]'s subterm has a statically visible
   footprint, the declaration must subsume it (the invisible parts are
   taken on trust). *)

open Fcsl_core

let infer : 'a Prog.t -> Footprint.t = Prog.footprint

(* The footprint of an [Annot]'s subterm as the spine shows it, NOT
   short-circuited by the annotation itself — what we compare the
   declaration against. *)
let rec visible : type a. a Prog.t -> Footprint.t = function
  | Prog.Annot (_, p) -> visible p
  | p -> Prog.footprint p

let rec check_annots : type a. loc:string -> a Prog.t -> Diag.finding list =
 fun ~loc p ->
  match p with
  | Prog.Ret _ | Prog.Act _ | Prog.Ffix (_, _) -> []
  | Prog.Bind (p, _) -> check_annots ~loc p
  | Prog.Par (p, q) -> check_annots ~loc p @ check_annots ~loc q
  | Prog.ParSplit (_, p, q) -> check_annots ~loc p @ check_annots ~loc q
  | Prog.Hide (_, p) -> check_annots ~loc p
  | Prog.Annot (fp, p) ->
    let vis = visible p in
    (if (not (Footprint.is_top vis)) && not (Footprint.subsumes fp vis) then
       [
         Diag.error ~rule:"annot-narrowing" ~loc
           (Fmt.str
              "declared footprint %a does not cover the subterm's visible \
               footprint %a"
              Footprint.pp fp Footprint.pp vis)
           ~detail:
             [ Fmt.str "subterm: %a" Prog.pp p ];
       ]
     else [])
    @ check_annots ~loc p
