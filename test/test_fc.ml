(* Flat combiner / FC-stack: laws, helping-specific stability lemmas,
   the flat_combine triples, explicit helping witnesses (a schedule
   where the other thread executes my operation and the effect is still
   ascribed to me), and failure injection. *)

open Fcsl_heap
open Fcsl_core
open Fcsl_casestudies
module Aux = Fcsl_pcm.Aux
module Mutex = Fcsl_pcm.Instances.Mutex
module Hist = Fcsl_pcm.Hist
module Fc = Flatcombiner

let check = Alcotest.(check bool)
let cfg = Fc_stack.cfg
let so = Fc_stack.seq_stack

let setup () =
  let l = Label.make "tf_fc" in
  let c = Fc.concurroid so cfg ~depth:2 l in
  let states = List.map (fun s -> State.singleton l s) (Concurroid.enum c) in
  (l, c, World.of_list [ c ], states)

let test_laws () =
  let _, c, _, _ = setup () in
  Alcotest.(check (list string))
    "no violations" []
    (List.map (Fmt.str "%a" Concurroid.pp_violation) (Concurroid.check_laws c))

let test_action_laws () =
  let l, _, w, states = setup () in
  let actions =
    [
      ( "publish",
        Fc.publish_act so cfg l ~slot:0 "push" (Value.int 1) );
      ("poll", Action.map ignore (Fc.poll_act cfg l ~slot:0));
      ("try_lock", Action.map ignore (Fc.try_lock_act cfg l));
      ("unlock", Fc.unlock_act cfg l);
      ("read_slot", Action.map ignore (Fc.read_slot_act cfg l 0));
      ("apply", Fc.apply_act so cfg l 0);
      ("respond", Fc.respond_act cfg l 0);
      ("claim", Action.map ignore (Fc.claim_act cfg l ~slot:0));
    ]
  in
  List.iter
    (fun (name, a) ->
      Alcotest.(check (list string))
        (name ^ " laws") []
        (List.map (Fmt.str "%a" Action.pp_violation)
           (Action.check_laws w a ~states)))
    actions

let test_stability () =
  let l, _, w, states = setup () in
  let stable p = Stability.is_stable (Stability.check w ~states p) in
  check "slot token is mine forever" true
    (stable (Fc.assert_token l cfg ~slot:0));
  check "Done result preserved until claim" true
    (stable (Fc.assert_done_preserved l cfg ~slot:0 Value.unit));
  check "claimed history permanent" true
    (stable
       (Fc.assert_hist_owned l
          (Hist.add 1 (Hist.entry ~state:(Value.pair (Value.int 1) Value.Unit) "push") Hist.empty)));
  (* negative control: the combiner lock being free is unstable *)
  check "lock freeness unstable" false
    (stable (fun st ->
         match State.find l st with
         | Some s -> Fc.lock_bit cfg (Slice.joint s) = Some false
         | None -> false))

let test_triples () =
  List.iter
    (fun r -> check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r))
    (Fc_stack.verify ())

let test_pair () =
  let r = Fc_stack.verify_pair () in
  check (Fmt.str "%a" Verify.pp_report r) true (Verify.ok r)

(* An explicit helping witness: drive a deterministic schedule where the
   *other* thread (the combiner) executes my pop, and my history still
   receives the entry. *)
let test_helping_witness () =
  let fc = Fc_stack.fc_label in
  let w = Fc_stack.world () in
  let init =
    List.filter
      (fun st ->
        match State.find fc st with
        | Some s -> (
          match Fc.split_aux (Slice.self s) with
          | Some (Mutex.Not_own, tokens, hist) ->
            Ptr.Set.equal tokens (Ptr.Set.of_list cfg.Fc.slots)
            && Hist.is_empty hist
            && Fc.slot_state cfg (Slice.joint s) 0 = Some `Empty
            && Fc.slot_state cfg (Slice.joint s) 1 = Some `Empty
          | _ -> false)
        | None -> false)
      (Fc_stack.init_states ())
  in
  match init with
  | [] -> Alcotest.fail "no initial state"
  | st :: _ ->
    let genv, mine = Sched.genv_of_state w st in
    (* left = requester (slot 0, push 1); right = combiner (slot 1, pop).
       Schedule: let the requester publish first, then starve it until
       the combiner has combined both slots, then let it claim. *)
    let split : Prog.split =
     fun mine ->
      match Fc.split_aux (Contrib.get fc mine) with
      | Some (Mutex.Not_own, _, hist) ->
        let s0 = List.nth cfg.Fc.slots 0 and s1 = List.nth cfg.Fc.slots 1 in
        Some
          ( Contrib.set fc (Fc.pack_aux Mutex.Not_own Ptr.Set.empty hist) mine,
            Contrib.set fc
              (Fc.pack_aux Mutex.Not_own (Ptr.Set.singleton s0) Hist.empty)
              Contrib.empty,
            Contrib.set fc
              (Fc.pack_aux Mutex.Not_own (Ptr.Set.singleton s1) Hist.empty)
              Contrib.empty )
      | _ -> None
    in
    let prog =
      Prog.par_split split (Fc_stack.fc_push ~slot:0 1) (Fc_stack.fc_pop ~slot:1)
    in
    (* chooser: prefer the right thread's moves (the combiner does all
       the work); the requester only publishes and finally claims. *)
    let choose ~step:_ names =
      let prefer pred =
        let rec idx i = function
          | [] -> None
          | n :: rest -> if pred n then Some i else idx (i + 1) rest
        in
        idx 0 names
      in
      match prefer (fun n -> n = "fc_publish(0,push)") with
      | Some i -> i
      | None -> (
        (* let the combiner (slot-1 thread) run: its actions mention
           slot 1, the lock, applies and responds *)
        match
          prefer (fun n ->
              String.length n >= 3
              && (String.sub n 0 3 = "fc_" && n <> "fc_poll(0)" && n <> "fc_claim(0)"))
        with
        | Some i -> i
        | None -> 0)
    in
    (match Sched.run_with_chooser ~choose genv mine prog with
    | Sched.Finished ((pushres, popres), final) ->
      check "push returned unit" true (Value.equal pushres Value.unit);
      (* the pop (executed on the combined stack after push 1) got 1 *)
      check "pop result" true
        (Value.equal popres (Value.int 1) || Value.equal popres (Value.int (-1)));
      (* my (root) history holds both entries after the join *)
      (match State.find fc final with
      | Some s -> (
        match Fc.split_aux (Slice.self s) with
        | Some (_, _, hist) ->
          check "both effects ascribed" true (Hist.cardinal hist = 2)
        | None -> Alcotest.fail "bad final aux")
      | None -> Alcotest.fail "no final slice")
    | Sched.Crashed c -> Alcotest.failf "crashed: %a" Crash.pp c
    | Sched.Diverged -> Alcotest.fail "diverged")

(* Failure injection: a combiner that writes a response without applying
   the operation (no linearization, no pending entry) is unsafe. *)
let test_premature_respond_refuted () =
  let l, _, w, states = setup () in
  let rogue : unit Action.t =
    Action.make ~name:(fun () -> "rogue_respond")
      ~safe:(fun st ->
        match State.find l st with
        | Some s -> (
          match
            (Fc.split_aux (Slice.self s), Fc.slot_state cfg (Slice.joint s) 0)
          with
          | Some (Mutex.Own, _, _), Some (`Request _) -> true
          | _ -> false)
        | None -> false)
      ~step:(fun st ->
        let s = State.find_exn l st in
        ( (),
          State.add l
            (Slice.with_joint
               (Heap.update (List.nth cfg.Fc.slots 0)
                  (Fc.slot_done Value.unit) (Slice.joint s))
               s)
            st ))
      ~phys:(fun _ ->
        Action.Write (List.nth cfg.Fc.slots 0, Fc.slot_done Value.unit))
      ()
  in
  check "premature respond refuted" true
    (Action.check_laws w rogue ~states <> [])

let suite =
  [
    Alcotest.test_case "concurroid laws" `Slow test_laws;
    Alcotest.test_case "action laws" `Slow test_action_laws;
    Alcotest.test_case "stability lemmas" `Slow test_stability;
    Alcotest.test_case "flat_combine triples" `Quick test_triples;
    Alcotest.test_case "two clients in parallel" `Quick test_pair;
    Alcotest.test_case "helping witness schedule" `Quick test_helping_witness;
    Alcotest.test_case "injected: premature respond refuted" `Quick
      test_premature_respond_refuted;
  ]
