(* The case-study registry: one entry per Table 1 row, recording where
   the implementation lives (for the line-count columns), which
   primitive concurroids it uses (for the Table 2 reuse matrix), its
   library dependencies (for the Figure 5 diagram), and how to verify it
   (for the Build-time analogue). *)

open Fcsl_core

(* The primitive concurroids of Table 2's columns. *)
type concurroid_use =
  | Priv
  | CLock
  | TLock
  | Lock_interface (* either lock, through the abstract interface: "3L" *)
  | Read_pair
  | Treiber
  | Span_tree
  | Flat_combine

let pp_concurroid_use ppf = function
  | Priv -> Fmt.string ppf "Priv"
  | CLock -> Fmt.string ppf "CLock"
  | TLock -> Fmt.string ppf "TLock"
  | Lock_interface -> Fmt.string ppf "Lock(3L)"
  | Read_pair -> Fmt.string ppf "ReadPair"
  | Treiber -> Fmt.string ppf "Treiber"
  | Span_tree -> Fmt.string ppf "SpanTree"
  | Flat_combine -> Fmt.string ppf "FlatCombine"

type case = {
  c_name : string; (* the Table 1 row name *)
  c_file : string; (* tagged source file, relative to the repo root *)
  c_extra_libs : string list; (* whole files attributed to the Libs column *)
  c_uses : concurroid_use list; (* direct concurroid usage *)
  c_deps : string list; (* Figure 5: names of cases this one builds on *)
  c_verify : unit -> Verify.report list; (* the mechanized check *)
}

open Fcsl_casestudies

let cs f = "lib/casestudies/" ^ f

let all : case list =
  [
    {
      c_name = "CAS-lock";
      c_file = cs "caslock.ml";
      c_extra_libs = [];
      c_uses = [ Priv; CLock ];
      c_deps = [];
      c_verify =
        (fun () ->
          (* the lock's own verification is its client-visible triples,
             run through CG increment's counter resource *)
          Cg_incr.Cas.verify ());
    };
    {
      c_name = "Ticketed lock";
      c_file = cs "ticketlock.ml";
      c_extra_libs = [];
      c_uses = [ Priv; TLock ];
      c_deps = [];
      c_verify = (fun () -> Cg_incr.Ticketed.verify ());
    };
    {
      c_name = "CG increment";
      c_file = cs "cg_incr.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Lock_interface ];
      c_deps = [ "Abstract lock" ];
      c_verify =
        (fun () -> Cg_incr.Cas.verify () @ Cg_incr.Ticketed.verify ());
    };
    {
      c_name = "CG allocator";
      c_file = cs "cg_alloc.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Lock_interface ];
      c_deps = [ "Abstract lock" ];
      c_verify =
        (fun () -> Cg_alloc.Cas.verify () @ Cg_alloc.Ticketed.verify ());
    };
    {
      c_name = "Pair snapshot";
      c_file = cs "snapshot.ml";
      c_extra_libs = [];
      c_uses = [ Read_pair ];
      c_deps = [];
      c_verify =
        (fun () ->
          Snapshot.verify ()
          @ [
              (let r = Snapshot.refute_unchecked () in
               if Verify.ok r then
                 { r with Verify.spec_name = "REFUTATION MISSED: " ^ r.Verify.spec_name;
                   failures =
                     [ { Verify.initial = State.empty;
                         crash =
                           Crash.make Crash.Internal_error
                             "injected bug not caught" } ] }
               else { r with Verify.spec_name = "unchecked variant refuted"; failures = [] });
            ]);
    };
    {
      c_name = "Treiber stack";
      c_file = cs "treiber.ml";
      c_extra_libs = [ cs "treiber_alloc.ml" ];
      c_uses = [ Priv; Lock_interface; Treiber ];
      c_deps = [ "CG allocator" ];
      c_verify =
        (fun () ->
          Treiber.verify ()
          @ [ Treiber.verify_push_pop () ]
          @ Treiber_alloc.verify ());
    };
    {
      c_name = "Spanning tree";
      c_file = cs "span.ml";
      c_extra_libs = [ "lib/heap/graph.ml"; cs "graph_catalog.ml" ];
      c_uses = [ Priv; Span_tree ];
      c_deps = [];
      c_verify =
        (fun () ->
          Span.verify_span ~max_nodes:2 () @ Span.verify_span_root ());
    };
    {
      c_name = "Flat combiner";
      c_file = cs "flatcombiner.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Lock_interface; Flat_combine ];
      c_deps = [ "Abstract lock"; "CG allocator" ];
      c_verify = (fun () -> Fc_stack.verify () @ [ Fc_stack.verify_pair () ]);
    };
    {
      c_name = "Seq. stack";
      c_file = cs "stack_clients.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Treiber ];
      c_deps = [ "Treiber stack" ];
      c_verify = (fun () -> [ Stack_clients.verify_seq () ]);
    };
    {
      c_name = "FC-stack";
      c_file = cs "fc_stack.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Flat_combine ];
      c_deps = [ "Flat combiner" ];
      c_verify = (fun () -> [ Fc_stack.verify_pair () ]);
    };
    {
      c_name = "Prod/Cons";
      c_file = cs "stack_clients.ml";
      c_extra_libs = [];
      c_uses = [ Priv; Treiber ];
      c_deps = [ "Treiber stack" ];
      c_verify = (fun () -> [ Stack_clients.verify_prod_cons () ]);
    };
  ]

let find name = List.find_opt (fun c -> String.equal c.c_name name) all

(* The abstract-lock interface node of Figure 5 (not a Table 1 row). *)
let interface_edges =
  [ ("CAS-lock", "Abstract lock"); ("Ticketed lock", "Abstract lock") ]

(* Transitive concurroid usage (the paper's matrix includes what a
   library inherits from the libraries it builds on). *)
let transitive_uses (c : case) : concurroid_use list =
  let rec go seen name =
    match find name with
    | None -> []
    | Some c ->
      if List.mem name seen then []
      else
        c.c_uses
        @ List.concat_map (go (name :: seen)) c.c_deps
  in
  let direct = c.c_uses @ List.concat_map (go [ c.c_name ]) c.c_deps in
  List.sort_uniq Stdlib.compare direct
