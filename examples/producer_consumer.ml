(* Producer/consumer over the Treiber stack (paper, Section 6): a
   producing and a consuming thread share a lock-free stack; the
   subjective history specs compose so that everything produced is
   consumed exactly once.

     dune exec examples/producer_consumer.exe *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Hist = Fcsl_pcm.Hist

let () =
  Fmt.pr "== Producer/consumer on the Treiber stack ==@.@.";

  (* 1. Execute one random schedule and show the interleaved history. *)
  let st = List.hd (Stack_clients.init_states ()) in
  let w = Stack_clients.world () in
  let genv, mine = Sched.genv_of_state w st in
  (match Sched.run_random ~seed:7 genv mine Stack_clients.prod_cons_prog with
  | Sched.Finished (((), (a, b)), final) ->
    Fmt.pr "consumer received: %d, %d@." a b;
    let h = Priv.pv_self Stack_clients.pv_label final in
    Fmt.pr "final private heap has %d cells (structure returned by hide)@.@."
      (Heap.cardinal h)
  | Sched.Crashed c -> Fmt.pr "crash: %a@." Crash.pp c
  | Sched.Diverged -> Fmt.pr "diverged@.");

  (* 2. Exhaustive verification: every schedule delivers {1, 2}. *)
  Fmt.pr "exhaustive check over all schedules:@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Verify.pp_report r)
    [ Stack_clients.verify_seq (); Stack_clients.verify_prod_cons () ];

  (* 3. The underlying stack's subjective specs, under interference. *)
  Fmt.pr "@.Treiber stack operations under environment interference:@.";
  List.iter
    (fun r -> Fmt.pr "  %a@." Verify.pp_report r)
    (Treiber.verify ());
  Fmt.pr "  %a@." Verify.pp_report (Treiber.verify_push_pop ())
