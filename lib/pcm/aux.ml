(* The universal auxiliary-state PCM.

   In the Coq development each concurroid fixes its own PCM type and
   dependent records keep the states well-typed.  OCaml states flow
   through one interpreter, so auxiliary values are drawn from this
   closed sum of all the PCMs used by the case-study suite.  It is
   itself a PCM: [Unit] is the shared unit, same-sort joins delegate to
   the underlying instance, and cross-sort joins are undefined — exactly
   the coproduct of PCMs with units identified. *)

open Fcsl_heap

type t =
  | Unit
  | Nat of int
  | Mutex of Instances.Mutex.t
  | Set of Ptr.Set.t
  | Heap of Heap.t
  | Hist of Hist.t
  | Pair of t * t

let unit = Unit
let nat n = Nat (Instances.Nat.of_int n)
let own = Mutex Instances.Mutex.Own
let not_own = Mutex Instances.Mutex.Not_own
let set s = Set s
let set_of_list ps = Set (Ptr.Set.of_list ps)
let singleton p = Set (Ptr.Set.singleton p)
let heap h = Heap h
let hist h = Hist h
let pair a b = Pair (a, b)

let rec join a b =
  match (a, b) with
  | Unit, x | x, Unit -> Some x
  | Nat m, Nat n -> Option.map (fun k -> Nat k) (Instances.Nat.join m n)
  | Mutex m, Mutex n ->
    Option.map (fun k -> Mutex k) (Instances.Mutex.join m n)
  | Set s, Set t -> Option.map (fun u -> Set u) (Instances.Ptr_set.join s t)
  | Heap h, Heap k -> Option.map (fun u -> Heap u) (Heap.union h k)
  | Hist h, Hist k -> Option.map (fun u -> Hist u) (Hist.join h k)
  | Pair (a1, a2), Pair (b1, b2) -> (
    match (join a1 b1, join a2 b2) with
    | Some c1, Some c2 -> Some (Pair (c1, c2))
    | None, _ | _, None -> None)
  | (Nat _ | Mutex _ | Set _ | Heap _ | Hist _ | Pair _), _ -> None

let join_exn a b =
  match join a b with
  | Some c -> c
  | None -> invalid_arg "Aux.join_exn: undefined join"

let defined a b = Option.is_some (join a b)

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit -> true
  | Nat m, Nat n -> Instances.Nat.equal m n
  | Mutex m, Mutex n -> Instances.Mutex.equal m n
  | Set s, Set t -> Instances.Ptr_set.equal s t
  | Heap h, Heap k -> Heap.equal h k
  | Hist h, Hist k -> Hist.equal h k
  | Pair (a1, a2), Pair (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Unit | Nat _ | Mutex _ | Set _ | Heap _ | Hist _ | Pair _), _ -> false

(* Total order and hash, both semantic: Set/Heap/Hist delegate to the
   canonical comparisons of the underlying maps, never to polymorphic
   compare (balanced-tree shapes differ between equal values built in
   different orders — exactly what happens when exploration reaches one
   configuration along two schedules). *)
let rec compare a b =
  let tag = function
    | Unit -> 0
    | Nat _ -> 1
    | Mutex _ -> 2
    | Set _ -> 3
    | Heap _ -> 4
    | Hist _ -> 5
    | Pair _ -> 6
  in
  match (a, b) with
  | Unit, Unit -> 0
  | Nat m, Nat n -> Int.compare m n
  | Mutex m, Mutex n -> Instances.Mutex.compare m n
  | Set s, Set t -> Ptr.Set.compare s t
  | Heap h, Heap k -> Heap.compare h k
  | Hist h, Hist k -> Hist.compare h k
  | Pair (a1, a2), Pair (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | (Unit | Nat _ | Mutex _ | Set _ | Heap _ | Hist _ | Pair _), _ ->
    Int.compare (tag a) (tag b)

let rec hash = function
  | Unit -> 31
  | Nat n -> (37 * 33) lxor n
  | Mutex Instances.Mutex.Not_own -> 41
  | Mutex Instances.Mutex.Own -> 43
  | Set s -> Ptr.Set.fold (fun p acc -> (acc * 33) lxor Ptr.hash p) s 47
  | Heap h -> (53 * 33) lxor Heap.hash h
  | Hist h -> (59 * 33) lxor Hist.hash h
  | Pair (a, b) -> (((61 * 33) lxor hash a) * 33) lxor hash b

(* Sort-aware unit test: [Nat 0], [Set ∅], etc. all count as units. *)
let rec is_unit = function
  | Unit -> true
  | Nat n -> n = 0
  | Mutex m -> Instances.Mutex.equal m Instances.Mutex.Not_own
  | Set s -> Ptr.Set.is_empty s
  | Heap h -> Heap.is_empty h
  | Hist h -> Hist.is_empty h
  | Pair (a, b) -> is_unit a && is_unit b

(* Checked projections, used by concurroid coherence predicates to pin
   the sort of their auxiliary components. *)

let as_nat = function Nat n -> Some n | Unit -> Some 0 | _ -> None

let as_mutex = function
  | Mutex m -> Some m
  | Unit -> Some Instances.Mutex.Not_own
  | _ -> None

let as_set = function
  | Set s -> Some s
  | Unit -> Some Ptr.Set.empty
  | _ -> None

let as_heap = function Heap h -> Some h | Unit -> Some Heap.empty | _ -> None
let as_hist = function Hist h -> Some h | Unit -> Some Hist.empty | _ -> None

let as_pair = function
  | Pair (a, b) -> Some (a, b)
  | Unit -> Some (Unit, Unit)
  | _ -> None

(* All two-way splits of an element: pairs [(a, b)] with [a • b = x].
   Used to check the fork-join closure law of concurroid state spaces.
   Set/heap/history splits are exponential, so they are capped; law
   checking only ever runs on small enumerated states. *)
let splits ?(cap = 12) x =
  let subsets xs =
    List.fold_left
      (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
      [ [] ] xs
  in
  let rec go x =
    match x with
    | Unit -> [ (Unit, Unit) ]
    | Nat n -> List.init (n + 1) (fun i -> (Nat i, Nat (n - i)))
    | Mutex Instances.Mutex.Not_own -> [ (not_own, not_own) ]
    | Mutex Instances.Mutex.Own -> [ (own, not_own); (not_own, own) ]
    | Set s ->
      let elems = Ptr.Set.elements s in
      if List.length elems > cap then
        [ (Set s, Set Ptr.Set.empty); (Set Ptr.Set.empty, Set s) ]
      else
        List.map
          (fun sub ->
            let sub = Ptr.Set.of_list sub in
            (Set sub, Set (Ptr.Set.diff s sub)))
          (subsets elems)
    | Heap h ->
      let cells = Heap.bindings h in
      if List.length cells > cap then
        [ (Heap h, Heap Heap.empty); (Heap Heap.empty, Heap h) ]
      else
        List.map
          (fun sub ->
            let sub = Heap.of_list sub in
            (Heap sub, Heap (Heap.diff h sub)))
          (subsets cells)
    | Hist h ->
      let stamps = Hist.timestamps h in
      if List.length stamps > cap then
        [ (Hist h, Hist Hist.empty); (Hist Hist.empty, Hist h) ]
      else
        List.map
          (fun sub ->
            let mem ts = List.mem ts sub in
            ( Hist (Hist.filter (fun ts _ -> mem ts) h),
              Hist (Hist.filter (fun ts _ -> not (mem ts)) h) ))
          (subsets stamps)
    | Pair (a, b) ->
      List.concat_map
        (fun (a1, a2) ->
          List.map (fun (b1, b2) -> (Pair (a1, b1), Pair (a2, b2))) (go b))
        (go a)
  in
  go x

let rec pp ppf = function
  | Unit -> Fmt.string ppf "tt"
  | Nat n -> Fmt.pf ppf "%d" n
  | Mutex m -> Instances.Mutex.pp ppf m
  | Set s -> Ptr.Set.pp ppf s
  | Heap h -> Fmt.pf ppf "[%a]" Heap.pp h
  | Hist h -> Fmt.pf ppf "hist<%d>" (Hist.cardinal h)
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b

let to_string a = Fmt.str "%a" pp a

module Pcm_instance : Pcm.S with type t = t = struct
  type nonrec t = t

  let unit = unit
  let join = join
  let equal = equal
  let pp = pp
end
