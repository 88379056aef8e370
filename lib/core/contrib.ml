(* Per-label PCM contributions of a thread.  A missing label means the
   unit contribution, so forked children start empty and fold back in on
   join (the subjective Par rule, Section 2.2.1). *)

module Aux = Fcsl_pcm.Aux

type t = Aux.t Label.Map.t

let empty : t = Label.Map.empty
let get l (c : t) = Option.value (Label.Map.find_opt l c) ~default:Aux.Unit
let set l a (c : t) = Label.Map.add l a c
let remove l (c : t) = Label.Map.remove l c
let of_list bindings : t = Label.Map.of_seq (List.to_seq bindings)

let labels (c : t) = Label.Map.keys c
let iter f (c : t) = Label.Map.iter f c

(* PCM join, pointwise; [None] on any per-label incompatibility. *)
let join (c1 : t) (c2 : t) : t option =
  Label.Map.fold
    (fun l a acc ->
      Option.bind acc (fun c ->
          Option.map (fun joined -> Label.Map.add l joined c)
            (Aux.join (get l c) a)))
    c2 (Some c1)

let join_exn c1 c2 =
  match join c1 c2 with
  | Some c -> c
  | None -> invalid_arg "Contrib.join_exn: incompatible contributions"

let join_all cs = List.fold_left (fun acc c -> Option.bind acc (join c)) (Some empty) cs

let is_empty (c : t) = Label.Map.for_all (fun _ a -> Aux.is_unit a) c

(* Pointwise [Aux.equal] of {!get} over the union of the labels, without
   building it: every binding of [c1] against [c2]'s (a missing one is
   [Unit]), then every binding of [c2] missing from [c1] against [Unit].
   Only the structural [Unit] equals a missing binding; [Nat 0] or an
   empty [Set] does not.  Physically shared maps and bindings — the
   labels a move left alone — compare in O(1). *)
let equal (c1 : t) (c2 : t) =
  let is_unit = function Aux.Unit -> true | _ -> false in
  c1 == c2
  || Label.Map.for_all
       (fun l a ->
         match Label.Map.find l c2 with
         | b -> Aux.equal a b
         | exception Not_found -> is_unit a)
       c1
     && Label.Map.for_all (fun l b -> is_unit b || Label.Map.mem l c1) c2

(* A binding to the structural [Aux.Unit] is indistinguishable from a
   missing one (see {!get}), so comparisons and hashing go through this
   canonical form.  Sort-specific units ([Nat 0], empty sets, ...) are
   NOT dropped: [equal] distinguishes them from [Unit] too. *)
let canon (c : t) =
  Label.Map.filter (fun _ a -> match a with Aux.Unit -> false | _ -> true) c

let compare (c1 : t) (c2 : t) =
  Label.Map.compare Aux.compare (canon c1) (canon c2)

(* Canonical: skips structural-Unit bindings and folds in ascending
   label order, consistent with {!equal}. *)
let hash (c : t) =
  Label.Map.fold
    (fun l a acc ->
      match a with
      | Aux.Unit -> acc
      | _ -> (((acc * 33) lxor Label.hash l) * 33) lxor Aux.hash a)
    c 5381

let pp ppf (c : t) = Label.Map.pp Aux.pp ppf c
