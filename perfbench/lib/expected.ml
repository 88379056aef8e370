(* The expected verdicts, written by hand from the paper's Table 1 and
   the service's QoS contract — never generated by the code under test.
   Every verdict a run observes is checked against this table; a
   mismatch is a failed operation.

   [exit] is [Verify.exit_code] of the row's in-process [c_verify]: 0
   for all eleven rows, Pair snapshot included (its injected unchecked
   variant must come back refuted, which the registry reports as a
   passing "unchecked variant refuted" entry).

   [service] lists the statuses a verdict frame may carry per QoS tier:
   gold runs unbounded and silver's 20 s deadline is never reached on
   these rows, so both must be conclusive (0).  Bronze's 5 s / 20,000
   state budget may trip and degrade a verdict (2) — but a budget trip
   must never refute a correct program (1) or lose a worker (3). *)

type row = { case : string; exit : int; gold : int list; silver : int list; bronze : int list }

let conclusive = [ 0 ]
let may_degrade = [ 0; 2 ]

let row case =
  { case; exit = 0; gold = conclusive; silver = conclusive; bronze = may_degrade }

let table =
  [
    row "CAS-lock";
    row "Ticketed lock";
    row "CG increment";
    row "CG allocator";
    row "Pair snapshot";
    row "Treiber stack";
    row "Spanning tree";
    row "Flat combiner";
    row "Seq. stack";
    row "FC-stack";
    row "Prod/Cons";
  ]

let find case = List.find_opt (fun r -> String.equal r.case case) table

let check_exit ~case code =
  match find case with
  | None -> Error (Printf.sprintf "%s: not in the expected table" case)
  | Some r when r.exit = code -> Ok ()
  | Some r ->
    Error (Printf.sprintf "%s: exit code %d, expected %d" case code r.exit)

let check_service ~case ~qos status =
  match find case with
  | None -> Error (Printf.sprintf "%s: not in the expected table" case)
  | Some r ->
    let allowed =
      match qos with
      | "gold" -> r.gold
      | "silver" -> r.silver
      | "bronze" -> r.bronze
      | q -> invalid_arg ("Expected.check_service: QoS " ^ q)
    in
    if List.mem status allowed then Ok ()
    else
      Error
        (Printf.sprintf "%s at %s: status %d, expected one of [%s]" case qos
           status
           (String.concat "; " (List.map string_of_int allowed)))
