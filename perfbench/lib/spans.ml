(* Spans recorded by the benchmark's own code around each call into a
   layer of the system.  They stay in memory and are written once, at
   the end of a traced run, as Chrome trace-event JSON (any browser's
   trace viewer opens it).  A disabled recorder drops everything, so
   the timed runs pay for no spans. *)

module Json = Fcsl_service.Json

type arg = I of int | F of float | S of string

type span = {
  id : int;
  parent : int option;
  name : string;
  job : int option;  (** the service job id: spans of one submission share it *)
  tid : int;
  start : float;  (** [Unix.gettimeofday] seconds *)
  stop : float;
  args : (string * arg) list;
}

type instant = {
  i_name : string;
  i_parent : int option;
  i_job : int option;
  i_tid : int;
  i_at : float;
  i_args : (string * arg) list;
}

type t = {
  enabled : bool;
  mu : Mutex.t;  (* serve-mixed records from two client threads *)
  mutable next : int;
  mutable spans : span list;
  mutable instants : instant list;
}

let create ~enabled =
  { enabled; mu = Mutex.create (); next = 0; spans = []; instants = [] }

let enabled t = t.enabled

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Parents are recorded after their children (a span is only complete
   once it has stopped), so a parent takes its id up front. *)
let fresh_id t =
  locked t (fun () ->
      t.next <- t.next + 1;
      t.next)

let self_tid () = Thread.id (Thread.self ())

let record t ?id ?parent ?job ?(args = []) ?(tid = self_tid ()) name ~start
    ~stop =
  if t.enabled then begin
    let id = match id with Some i -> i | None -> fresh_id t in
    let s = { id; parent; name; job; tid; start; stop; args } in
    locked t (fun () -> t.spans <- s :: t.spans)
  end

let instant t ?parent ?job ?(args = []) name ~at =
  if t.enabled then begin
    let i =
      {
        i_name = name;
        i_parent = parent;
        i_job = job;
        i_tid = self_tid ();
        i_at = at;
        i_args = args;
      }
    in
    locked t (fun () -> t.instants <- i :: t.instants)
  end

let spans t = locked t (fun () -> List.rev t.spans)
let dur s = s.stop -. s.start

(* Children of every span, indexed once: a traced serve run holds tens
   of thousands of spans. *)
let children_index spans =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace tbl p
            (s :: Option.value (Hashtbl.find_opt tbl p) ~default:[]))
        s.parent)
    spans;
  fun s -> Option.value (Hashtbl.find_opt tbl s.id) ~default:[]

(* The length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

(* A span's self time: its duration minus the part of its interval
   that its children cover (overlapping children count once). *)
let self_time ~children s =
  dur s
  -. covered ~lo:s.start ~hi:s.stop
       (List.map (fun c -> (c.start, c.stop)) (children s))

(* "Layers sum to end-to-end": over every span named [parent], the
   relative gap between their summed durations and the summed durations
   of their children named in [parts].  Summed, not per span: a
   sub-millisecond submission's share is dominated by scheduling jitter
   in the client, which says nothing about the layers.  Returns the
   number of such parents and the gap. *)
let reconcile spans ~parent ~parts =
  let children = children_index spans in
  let n, whole, covered =
    List.fold_left
      (fun (n, whole, covered) p ->
        if p.name <> parent then (n, whole, covered)
        else
          let sum =
            List.fold_left
              (fun acc c -> if List.mem c.name parts then acc +. dur c else acc)
              0. (children p)
          in
          (n + 1, whole +. dur p, covered +. sum))
      (0, 0., 0.) spans
  in
  (n, if whole > 0. then Float.abs (whole -. covered) /. whole else 0.)

(* --- Chrome trace-event JSON ------------------------------------------- *)

let json_arg = function
  | I n -> Json.Int n
  | F f -> Json.Float f
  | S s -> Json.Str s

let opt_int k = function Some v -> [ (k, Json.Int v) ] | None -> []

let to_chrome t =
  let spans = spans t in
  let instants = locked t (fun () -> List.rev t.instants) in
  let t0 =
    List.fold_left
      (fun m s -> Float.min m s.start)
      (List.fold_left (fun m i -> Float.min m i.i_at) infinity instants)
      spans
  in
  let us x = Json.Float (Float.round ((x -. t0) *. 1e7) /. 10.) in
  let args ~id ~parent ~job extra =
    Json.Obj
      (opt_int "span_id" id @ opt_int "parent" parent @ opt_int "job" job
      @ List.map (fun (k, v) -> (k, json_arg v)) extra)
  in
  let span s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Float (Float.round (dur s *. 1e7) /. 10.));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ("args", args ~id:(Some s.id) ~parent:s.parent ~job:s.job s.args);
      ]
  in
  let instant i =
    Json.Obj
      [
        ("name", Json.Str i.i_name);
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("ts", us i.i_at);
        ("pid", Json.Int 1);
        ("tid", Json.Int i.i_tid);
        ("args", args ~id:None ~parent:i.i_parent ~job:i.i_job i.i_args);
      ]
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr (List.map span spans @ List.map instant instants) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_chrome t)))
