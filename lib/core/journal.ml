(* Durable verification: an append-only, CRC-checksummed, length-
   prefixed binary write-ahead journal of exploration progress.

   Layout: a journal directory holds [journal.fcslj] (the WAL) and
   [snapshot.fcslj] (an atomically-replaced compaction).  Both start
   with an 8-byte magic; every record is framed as

     u32-le payload length | u32-le CRC-32(payload) | payload

   so a torn write — a record cut anywhere by SIGKILL, OOM-kill or
   power loss — is detected on open and the WAL physically truncated
   back to the last intact record.  Corruption is degradation (the
   dropped suffix is simply re-verified), never a wrong verdict:
   nothing downstream ever consumes an unchecksummed byte.

   Durability granularity is the verification unit — one initial state
   of one spec under one ladder tier (State_done), plus whole spec
   verdicts (Spec_done).  Configuration memo keys are process-local
   (thread-tree atoms are identified by closure identity, see
   Sched.keyer), so they cannot name work across a process boundary;
   Frontier records carry the explored-configuration counts for
   observability and the kill9 chaos mode's monotonicity assertion.

   Group commit: appends are serialized into a pending buffer and
   written/fsynced per the fsync policy (always / at most every t
   seconds / never), so an armed-but-idle journal costs an in-memory
   serialization per record and a rare syscall.  The handle is
   domain-safe: one mutex guards the buffer, the index and the fd. *)

type fsync_policy = Always | Interval of float | Never

let fsync_policy_name = function
  | Always -> "always"
  | Interval s -> Fmt.str "interval:%g" s
  | Never -> "never"

let default_interval_s = 0.05

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "interval" -> Ok (Interval default_interval_s)
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
    match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some t when t >= 0. -> Ok (Interval t)
    | _ -> Error (Fmt.str "bad fsync interval %S" s))
  | _ -> Error (Fmt.str "unknown fsync policy %S (always|interval[:SECS]|never)" s)

type state_image = {
  si_outcomes : int;
  si_diverged : int;
  si_complete : bool;
  si_states : int;
  si_failures : Crash.t list;
}

type report_image = {
  ri_spec : string;
  ri_params : string;
  ri_tier : string;
  ri_seed : int option;
  ri_initial_states : int;
  ri_outcomes : int;
  ri_diverged : int;
  ri_complete : bool;
  ri_states : int; (* configurations explored *)
  ri_failures : (int * Crash.t) list;
  ri_worker_crashes : (int * Crash.t) list;
  ri_budget : Budget.stats option;
}

type record =
  | Meta of { version : int; created_s : float }
  | Spec_begin of { spec : string; params : string }
  | Tier_begin of { spec : string; tier : string; seed : int option }
  | Frontier of { spec : string; tier : string; states : int }
  | Counterexample of { spec : string; crash : Crash.t }
  | State_done of { spec : string; tier : string; index : int;
                    state : state_image }
  | Spec_done of report_image

let pp_record ppf = function
  | Meta m -> Fmt.pf ppf "meta v%d" m.version
  | Spec_begin s -> Fmt.pf ppf "spec-begin %s [%s]" s.spec s.params
  | Tier_begin t ->
    Fmt.pf ppf "tier-begin %s %s%a" t.spec t.tier
      Fmt.(option (fun ppf -> pf ppf " seed=%d"))
      t.seed
  | Frontier f -> Fmt.pf ppf "frontier %s %s %d states" f.spec f.tier f.states
  | Counterexample c ->
    Fmt.pf ppf "counterexample %s: %a" c.spec Crash.pp c.crash
  | State_done s ->
    Fmt.pf ppf "state-done %s %s #%d (%d outcomes, %d failures)" s.spec s.tier
      s.index s.state.si_outcomes
      (List.length s.state.si_failures)
  | Spec_done r ->
    Fmt.pf ppf "spec-done %s tier=%s (%d outcomes, %d failures)" r.ri_spec
      r.ri_tier r.ri_outcomes
      (List.length r.ri_failures)

(* --- CRC-32 (IEEE 802.3, reflected) ---------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          (Int32.shift_right_logical !c 8)
          t.(Int32.to_int (Int32.logand !c 0xFFl) lxor Char.code ch))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* --- Binary record encoding ------------------------------------------ *)

let magic = "FCSLJ001"

(* v2: [state_image]/[report_image] gained explored-state counts
   ([si_states]/[ri_states]).  A journal written by a different version
   is not replayed: its Meta record fails decoding (below), so recovery
   truncates at it and everything re-verifies — degradation, never a
   wrong verdict. *)
let version = 2

(* Any record longer than this is treated as corruption, bounding what
   a garbage length prefix can make the scanner allocate. *)
let max_record_bytes = 1 lsl 26

exception Corrupt

let w_u8 = Buffer.add_uint8
let w_int b n = Buffer.add_int64_le b (Int64.of_int n)
let w_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
    w_u8 b 1;
    w b v

let w_list w b xs =
  w_int b (List.length xs);
  List.iter (w b) xs

(* Crashes travel as their JSON rendering: one serialization shared
   with reports and the CLI, and round-tripped by [Crash.of_json]. *)
let w_crash b c = w_str b (Json.to_string (Crash.to_json c))

type rd = { rs : string; mutable rp : int }

let r_u8 rd =
  if rd.rp >= String.length rd.rs then raise Corrupt;
  let c = Char.code rd.rs.[rd.rp] in
  rd.rp <- rd.rp + 1;
  c

let r_int rd =
  if rd.rp + 8 > String.length rd.rs then raise Corrupt;
  let v = Int64.to_int (String.get_int64_le rd.rs rd.rp) in
  rd.rp <- rd.rp + 8;
  v

let r_float rd =
  if rd.rp + 8 > String.length rd.rs then raise Corrupt;
  let v = Int64.float_of_bits (String.get_int64_le rd.rs rd.rp) in
  rd.rp <- rd.rp + 8;
  v

let r_bool rd = r_u8 rd <> 0

let r_str rd =
  let n = r_int rd in
  if n < 0 || n > max_record_bytes || rd.rp + n > String.length rd.rs then
    raise Corrupt;
  let s = String.sub rd.rs rd.rp n in
  rd.rp <- rd.rp + n;
  s

let r_opt r rd = match r_u8 rd with 0 -> None | 1 -> Some (r rd) | _ -> raise Corrupt

let r_list r rd =
  let n = r_int rd in
  if n < 0 || n > 1_000_000 then raise Corrupt;
  List.init n (fun _ -> r rd)

let r_crash rd =
  match Result.bind (Json.parse (r_str rd)) Crash.of_json with
  | Ok c -> c
  | Error _ -> raise Corrupt

let w_state b (s : state_image) =
  w_int b s.si_outcomes;
  w_int b s.si_diverged;
  w_bool b s.si_complete;
  w_int b s.si_states;
  w_list w_crash b s.si_failures

let r_state rd =
  let si_outcomes = r_int rd in
  let si_diverged = r_int rd in
  let si_complete = r_bool rd in
  let si_states = r_int rd in
  let si_failures = r_list r_crash rd in
  { si_outcomes; si_diverged; si_complete; si_states; si_failures }

let w_budget b (s : Budget.stats) =
  w_float b s.st_elapsed_s;
  w_int b s.st_states;
  w_int b s.st_major_words;
  w_opt w_str b s.st_tripped

let r_budget rd =
  let st_elapsed_s = r_float rd in
  let st_states = r_int rd in
  let st_major_words = r_int rd in
  let st_tripped = r_opt r_str rd in
  { Budget.st_elapsed_s; st_states; st_major_words; st_tripped }

let w_ixcrash b (i, c) =
  w_int b i;
  w_crash b c

let r_ixcrash rd =
  let i = r_int rd in
  let c = r_crash rd in
  (i, c)

let encode (r : record) : string =
  let b = Buffer.create 96 in
  (match r with
  | Meta m ->
    w_u8 b 1;
    w_int b m.version;
    w_float b m.created_s
  | Spec_begin s ->
    w_u8 b 2;
    w_str b s.spec;
    w_str b s.params
  | Tier_begin t ->
    w_u8 b 3;
    w_str b t.spec;
    w_str b t.tier;
    w_opt w_int b t.seed
  | Frontier f ->
    w_u8 b 4;
    w_str b f.spec;
    w_str b f.tier;
    w_int b f.states
  | Counterexample c ->
    w_u8 b 5;
    w_str b c.spec;
    w_crash b c.crash
  | State_done s ->
    w_u8 b 6;
    w_str b s.spec;
    w_str b s.tier;
    w_int b s.index;
    w_state b s.state
  | Spec_done ri ->
    w_u8 b 7;
    w_str b ri.ri_spec;
    w_str b ri.ri_params;
    w_str b ri.ri_tier;
    w_opt w_int b ri.ri_seed;
    w_int b ri.ri_initial_states;
    w_int b ri.ri_outcomes;
    w_int b ri.ri_diverged;
    w_bool b ri.ri_complete;
    w_int b ri.ri_states;
    w_list w_ixcrash b ri.ri_failures;
    w_list w_ixcrash b ri.ri_worker_crashes;
    w_opt w_budget b ri.ri_budget);
  Buffer.contents b

let decode (payload : string) : record =
  let rd = { rs = payload; rp = 0 } in
  let r =
    match r_u8 rd with
    | 1 ->
      let v = r_int rd in
      (* Another version's records are not replayable; stopping the scan
         at its Meta truncates the whole generation, the safe direction. *)
      if v <> version then raise Corrupt;
      let created_s = r_float rd in
      Meta { version = v; created_s }
    | 2 ->
      let spec = r_str rd in
      let params = r_str rd in
      Spec_begin { spec; params }
    | 3 ->
      let spec = r_str rd in
      let tier = r_str rd in
      let seed = r_opt r_int rd in
      Tier_begin { spec; tier; seed }
    | 4 ->
      let spec = r_str rd in
      let tier = r_str rd in
      let states = r_int rd in
      Frontier { spec; tier; states }
    | 5 ->
      let spec = r_str rd in
      let crash = r_crash rd in
      Counterexample { spec; crash }
    | 6 ->
      let spec = r_str rd in
      let tier = r_str rd in
      let index = r_int rd in
      let state = r_state rd in
      State_done { spec; tier; index; state }
    | 7 ->
      let ri_spec = r_str rd in
      let ri_params = r_str rd in
      let ri_tier = r_str rd in
      let ri_seed = r_opt r_int rd in
      let ri_initial_states = r_int rd in
      let ri_outcomes = r_int rd in
      let ri_diverged = r_int rd in
      let ri_complete = r_bool rd in
      let ri_states = r_int rd in
      let ri_failures = r_list r_ixcrash rd in
      let ri_worker_crashes = r_list r_ixcrash rd in
      let ri_budget = r_opt r_budget rd in
      Spec_done
        {
          ri_spec; ri_params; ri_tier; ri_seed; ri_initial_states;
          ri_outcomes; ri_diverged; ri_complete; ri_states; ri_failures;
          ri_worker_crashes; ri_budget;
        }
    | _ -> raise Corrupt
  in
  if rd.rp <> String.length payload then raise Corrupt;
  r

let frame (r : record) : string =
  let payload = encode r in
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* --- File scanning and recovery --------------------------------------- *)

let wal_path dir = Filename.concat dir "journal.fcslj"
let snapshot_path dir = Filename.concat dir "snapshot.fcslj"

let read_file path : string option =
  match In_channel.open_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

let has_magic s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

(* Scan framed records after the magic; stop (without raising) at the
   first frame that is short, oversized, checksum-broken or
   undecodable.  Returns the valid records and the file offset of the
   first invalid byte — the recovery truncation point. *)
let scan (s : string) : record list * int =
  let len = String.length s in
  let pos = ref (String.length magic) in
  let out = ref [] in
  let stop = ref false in
  while not !stop do
    if !pos + 8 > len then stop := true
    else begin
      let n = Int32.to_int (String.get_int32_le s !pos) in
      let crc = String.get_int32_le s (!pos + 4) in
      if n < 1 || n > max_record_bytes || !pos + 8 + n > len then stop := true
      else
        let payload = String.sub s (!pos + 8) n in
        if crc32 payload <> crc then stop := true
        else
          match decode payload with
          | r ->
            out := r :: !out;
            pos := !pos + 8 + n
          | exception Corrupt -> stop := true
    end
  done;
  (List.rev !out, !pos)

let scan_file path : record list * int * int =
  match read_file path with
  | None -> ([], String.length magic, -1)
  | Some s when has_magic s ->
    let records, valid_end = scan s in
    (records, valid_end, String.length s)
  | Some s ->
    (* header itself corrupt: everything is a torn tail *)
    ([], String.length magic, String.length s)

let read dir : record list * int =
  let snap, _, _ = scan_file (snapshot_path dir) in
  let wal, valid_end, file_len = scan_file (wal_path dir) in
  (snap @ wal, if file_len < 0 then 0 else file_len - valid_end)

(* --- The live index --------------------------------------------------- *)

(* What appended and recovered records mean for lookups, maintained
   incrementally so resume decisions don't rescan record lists.  A
   [Spec_begin] whose params differ from the spec's previous ones
   invalidates that spec's unit-level records: results computed under
   different engine parameters are not replayable. *)
type index = {
  ix_spec_done : (string * string, report_image) Hashtbl.t;
  ix_state_done : (string * string * int, state_image) Hashtbl.t;
  ix_params : (string, string) Hashtbl.t;
  ix_tier : (string, string * int option) Hashtbl.t;
  ix_frontier : (string * string, int) Hashtbl.t;
  ix_cex : (string, Crash.t list) Hashtbl.t;
  mutable ix_spec_order : string list; (* first-appearance, newest first *)
}

let index_create () =
  {
    ix_spec_done = Hashtbl.create 32;
    ix_state_done = Hashtbl.create 128;
    ix_params = Hashtbl.create 32;
    ix_tier = Hashtbl.create 32;
    ix_frontier = Hashtbl.create 32;
    ix_cex = Hashtbl.create 8;
    ix_spec_order = [];
  }

let index_seen ix spec =
  if not (List.mem spec ix.ix_spec_order) then
    ix.ix_spec_order <- spec :: ix.ix_spec_order

let index_invalidate_units ix spec =
  Hashtbl.filter_map_inplace
    (fun (sp, _, _) v -> if sp = spec then None else Some v)
    ix.ix_state_done;
  Hashtbl.remove ix.ix_tier spec;
  Hashtbl.remove ix.ix_cex spec;
  Hashtbl.filter_map_inplace
    (fun (sp, _) v -> if sp = spec then None else Some v)
    ix.ix_frontier

let index_record ix = function
  | Meta _ -> ()
  | Spec_begin { spec; params } ->
    index_seen ix spec;
    (match Hashtbl.find_opt ix.ix_params spec with
    | Some p when p <> params -> index_invalidate_units ix spec
    | _ -> ());
    Hashtbl.replace ix.ix_params spec params
  | Tier_begin { spec; tier; seed } ->
    index_seen ix spec;
    Hashtbl.replace ix.ix_tier spec (tier, seed)
  | Frontier { spec; tier; states } ->
    Hashtbl.replace ix.ix_frontier (spec, tier) states
  | Counterexample { spec; crash } ->
    index_seen ix spec;
    let prev = Option.value (Hashtbl.find_opt ix.ix_cex spec) ~default:[] in
    if not (List.exists (Crash.equal crash) prev) then
      Hashtbl.replace ix.ix_cex spec (prev @ [ crash ])
  | State_done { spec; tier; index; state } ->
    index_seen ix spec;
    Hashtbl.replace ix.ix_state_done (spec, tier, index) state
  | Spec_done ri ->
    index_seen ix ri.ri_spec;
    Hashtbl.replace ix.ix_spec_done (ri.ri_spec, ri.ri_params) ri

(* The records worth keeping at compaction: completed verdicts, every
   unit-level result (kept even once subsumed by a Spec_done, so the
   durable-unit count is monotone across compactions — the kill9 chaos
   invariant), in-flight bookkeeping, and the last frontier per
   attempt.  Superseded frontiers, old metas and repeated begin
   markers — the unbounded-over-time records — are dropped. *)
let index_live_records ix : record list =
  let specs = List.rev ix.ix_spec_order in
  let done_params spec =
    Hashtbl.fold
      (fun (sp, params) _ acc -> if sp = spec then params :: acc else acc)
      ix.ix_spec_done []
  in
  Meta { version; created_s = Unix.gettimeofday () }
  :: List.concat_map
       (fun spec ->
         let begins =
           match Hashtbl.find_opt ix.ix_params spec with
           | Some params when not (List.mem params (done_params spec)) ->
             [ Spec_begin { spec; params } ]
           | _ -> []
         in
         let tiers =
           match Hashtbl.find_opt ix.ix_tier spec with
           | Some (tier, seed) -> [ Tier_begin { spec; tier; seed } ]
           | None -> []
         in
         let states =
           Hashtbl.fold
             (fun (sp, tier, index) state acc ->
               if sp = spec then State_done { spec; tier; index; state } :: acc
               else acc)
             ix.ix_state_done []
           |> List.sort compare
         in
         let fronts =
           Hashtbl.fold
             (fun (sp, tier) states acc ->
               if sp = spec then Frontier { spec; tier; states } :: acc else acc)
             ix.ix_frontier []
           |> List.sort compare
         in
         let cexs =
           List.map
             (fun crash -> Counterexample { spec; crash })
             (Option.value (Hashtbl.find_opt ix.ix_cex spec) ~default:[])
         in
         let dones =
           Hashtbl.fold
             (fun (sp, _) ri acc -> if sp = spec then Spec_done ri :: acc else acc)
             ix.ix_spec_done []
           |> List.sort compare
         in
         begins @ tiers @ states @ fronts @ cexs @ dones)
       specs

(* --- The handle -------------------------------------------------------- *)

(* The syscall boundary, pluggable so the tests can inject
   ENOSPC/EIO/short writes/fsync failures without touching a real
   filesystem knob.  Everything the journal persists flows through one
   of these three hooks. *)
type io = {
  io_write : Unix.file_descr -> string -> int -> int -> int;
      (* write_substring: may write fewer bytes than asked *)
  io_fsync : Unix.file_descr -> unit;
  io_rename : string -> string -> unit;
}

let real_io =
  {
    io_write = Unix.write_substring;
    io_fsync = Unix.fsync;
    io_rename = Unix.rename;
  }

type t = {
  t_dir : string;
  t_fsync : fsync_policy;
  t_compact_every : int;
  t_recovered : record list;
  t_truncated : int;
  t_io : io;
  mu : Mutex.t;
  ix : index;
  mutable fd : Unix.file_descr;
  pending : Buffer.t;
  mutable last_sync : float;
  mutable unsynced : bool;
  mutable since_compact : int;
  mutable closed : bool;
  mutable failed : Crash.t option;
      (* first unabsorbable I/O fault: the journal is wounded — it
         stops persisting (in-memory lookups keep working) and every
         later mutation is a no-op.  Degradation, never corruption:
         whatever half-record the fault left on disk is dropped by
         CRC recovery on the next open. *)
}

let dir t = t.t_dir
let fsync t = t.t_fsync
let recovered t = t.t_recovered
let truncated_bytes t = t.t_truncated

let rec mkdirs d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A short write that returns 0 would loop forever; treat it as the
   I/O error it is.  Partial writes — real or injected — just continue
   from the written offset. *)
let write_all_io io fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    let k = io.io_write fd s !written (n - !written) in
    if k <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", "zero-byte write"));
    written := !written + k
  done

(* Run a mutation under the wounded-journal discipline: once [failed]
   is set nothing touches the disk again, and the first I/O fault to
   escape the hooks sets it, as a structured [Crash.Io_fault].  The
   caller's in-memory state (index, pending buffer) is already updated
   by then, so lookups stay truthful for this process; the next open
   simply re-verifies what never landed. *)
let absorb_io t f =
  match t.failed with
  | Some _ -> ()
  | None -> (
    try f ()
    with Unix.Unix_error (e, fn, _) ->
      t.failed <-
        Some
          (Crash.make Crash.Io_fault
             (Printf.sprintf "journal %s: %s (%s)" fn (Unix.error_message e)
                t.t_dir)))

(* Flush the pending buffer to the fd; [sync] additionally fsyncs. *)
let commit_locked t ~sync =
  absorb_io t (fun () ->
      if Buffer.length t.pending > 0 then begin
        write_all_io t.t_io t.fd (Buffer.contents t.pending);
        Buffer.clear t.pending;
        t.unsynced <- true
      end;
      if sync && t.unsynced then begin
        t.t_io.io_fsync t.fd;
        t.unsynced <- false
      end;
      t.last_sync <- Unix.gettimeofday ())

let fsync_dir io dirpath =
  (* best effort: not every filesystem supports fsync on a directory *)
  match Unix.openfile dirpath [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try io.io_fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd
  | exception Unix.Unix_error _ -> ()

let compact_locked t =
  commit_locked t ~sync:(t.t_fsync <> Never);
  absorb_io t (fun () ->
      let tmp = snapshot_path t.t_dir ^ ".tmp" in
      let fd =
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let b = Buffer.create 4096 in
      Buffer.add_string b magic;
      List.iter (fun r -> Buffer.add_string b (frame r)) (index_live_records t.ix);
      (match write_all_io t.t_io fd (Buffer.contents b) with
      | () -> ()
      | exception e ->
        (* never leak the tmp fd; the half-written tmp file is inert
           until a successful rename, so the snapshot stays intact *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e);
      if t.t_fsync <> Never then t.t_io.io_fsync fd;
      Unix.close fd;
      t.t_io.io_rename tmp (snapshot_path t.t_dir);
      if t.t_fsync <> Never then fsync_dir t.t_io t.t_dir;
      (* the snapshot now owns every live record: reset the WAL *)
      Unix.ftruncate t.fd (String.length magic);
      ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
      if t.t_fsync <> Never then t.t_io.io_fsync t.fd;
      t.unsynced <- false;
      t.since_compact <- 0)

let openj ?(fsync = Interval default_interval_s) ?(compact_every = 2048)
    ?(resume = false) ?(io = real_io) dirpath : t =
  mkdirs dirpath;
  if not resume then begin
    (try Sys.remove (wal_path dirpath) with Sys_error _ -> ());
    (try Sys.remove (snapshot_path dirpath) with Sys_error _ -> ());
    try Sys.remove (snapshot_path dirpath ^ ".tmp") with Sys_error _ -> ()
  end;
  let snap_records, _, _ = scan_file (snapshot_path dirpath) in
  let wal_records, valid_end, file_len = scan_file (wal_path dirpath) in
  let fd =
    Unix.openfile (wal_path dirpath) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  (* an I/O fault this early wounds the handle rather than raising:
     the caller gets a journal that remembers nothing durable but
     still answers lookups and absorbs appends *)
  let failed0 = ref None in
  (try
     if file_len < 0 || file_len < String.length magic then begin
       (* fresh or headerless file: (re)write the magic *)
       Unix.ftruncate fd 0;
       write_all_io io fd magic
     end
     else
       (* recovery: physically drop the torn/corrupt tail *)
       Unix.ftruncate fd valid_end;
     ignore (Unix.lseek fd 0 Unix.SEEK_END)
   with Unix.Unix_error (e, fn, _) ->
     failed0 :=
       Some
         (Crash.make Crash.Io_fault
            (Printf.sprintf "journal %s: %s (%s)" fn (Unix.error_message e)
               dirpath)));
  let recovered = snap_records @ wal_records in
  let ix = index_create () in
  List.iter (index_record ix) recovered;
  let t =
    {
      t_dir = dirpath;
      t_fsync = fsync;
      t_compact_every = max 16 compact_every;
      t_recovered = recovered;
      t_truncated = (if file_len < 0 then 0 else max 0 (file_len - valid_end));
      t_io = io;
      mu = Mutex.create ();
      ix;
      fd;
      pending = Buffer.create 4096;
      last_sync = Unix.gettimeofday ();
      unsynced = false;
      since_compact = List.length wal_records;
      closed = false;
      failed = !failed0;
    }
  in
  (* one Meta per process generation appending to this journal; it
     rides the pending buffer and commits with the first policy-driven
     flush (or at close) *)
  let meta = Meta { version; created_s = Unix.gettimeofday () } in
  index_record t.ix meta;
  Buffer.add_string t.pending (frame meta);
  t.since_compact <- t.since_compact + 1;
  t

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let append_locked t r =
  if t.closed then invalid_arg "Journal.append: closed";
  (* the in-memory index always advances — this process's lookups stay
     truthful even when a wounded journal persists nothing *)
  index_record t.ix r;
  if t.failed = None then begin
    Buffer.add_string t.pending (frame r);
    t.since_compact <- t.since_compact + 1;
    (match t.t_fsync with
    | Always -> commit_locked t ~sync:true
    | Interval s ->
      if Unix.gettimeofday () -. t.last_sync >= s then
        commit_locked t ~sync:true
      else if Buffer.length t.pending >= 1 lsl 18 then
        commit_locked t ~sync:false
    | Never ->
      if Buffer.length t.pending >= 1 lsl 18 then commit_locked t ~sync:false);
    if t.failed = None && t.since_compact >= t.t_compact_every then
      compact_locked t
  end

let append t r = locked t (fun () -> append_locked t r)
let flush t = locked t (fun () -> commit_locked t ~sync:(t.t_fsync <> Never))
let compact t = locked t (fun () -> compact_locked t)
let io_failure t = locked t (fun () -> t.failed)
let pending_bytes t = locked t (fun () -> Buffer.length t.pending)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        commit_locked t ~sync:(t.t_fsync <> Never);
        (try Unix.close t.fd with Unix.Unix_error _ -> ());
        t.closed <- true
      end)

(* --- Lookups ----------------------------------------------------------- *)

let find_spec_done t ~spec ~params =
  locked t (fun () -> Hashtbl.find_opt t.ix.ix_spec_done (spec, params))

let find_state_done t ~spec ~tier ~index =
  locked t (fun () -> Hashtbl.find_opt t.ix.ix_state_done (spec, tier, index))

let last_tier t ~spec = locked t (fun () -> Hashtbl.find_opt t.ix.ix_tier spec)

let completed_units t =
  locked t (fun () ->
      Hashtbl.length t.ix.ix_state_done + Hashtbl.length t.ix.ix_spec_done)

let counterexamples t ~spec =
  locked t (fun () ->
      Option.value (Hashtbl.find_opt t.ix.ix_cex spec) ~default:[])

(* --- Writers ----------------------------------------------------------- *)

(* Journaled counterexamples per spec are deduplicated (memoized replay
   re-emits crashes) and capped: they are durable evidence for [jobs
   status], not the failure accounting — that lives in State_done /
   Spec_done records. *)
let max_journaled_cex = 32

(* A writer appends a Frontier record every this many ticks. *)
let frontier_every = 1024

type writer = {
  w_j : t;
  w_spec : string;
  w_tier : string;
  w_count : int Atomic.t;
}

let writer t ~spec ~tier =
  { w_j = t; w_spec = spec; w_tier = tier; w_count = Atomic.make 0 }

let writer_tick w =
  let n = Atomic.fetch_and_add w.w_count 1 + 1 in
  if n mod frontier_every = 0 then
    append w.w_j (Frontier { spec = w.w_spec; tier = w.w_tier; states = n })

let writer_crash w crash =
  let t = w.w_j in
  locked t (fun () ->
      let prev =
        Option.value (Hashtbl.find_opt t.ix.ix_cex w.w_spec) ~default:[]
      in
      if
        List.length prev < max_journaled_cex
        && not (List.exists (Crash.equal crash) prev)
      then append_locked t (Counterexample { spec = w.w_spec; crash }))

(* --- Job status (the [fcsl jobs] CLI) ---------------------------------- *)

type job = {
  j_spec : string;
  j_params : string;
  j_status : [ `Complete | `Degraded | `Failed | `In_flight ];
  j_tier : string option;
  j_units : int;
  j_states : int;
  j_failures : int;
  j_budget : Budget.stats option;
}

let jobs_of_records records : job list =
  let ix = index_create () in
  List.iter (index_record ix) records;
  List.rev_map
    (fun spec ->
      let params = Option.value (Hashtbl.find_opt ix.ix_params spec) ~default:"" in
      let dones =
        Hashtbl.fold
          (fun (sp, _) ri acc -> if sp = spec then ri :: acc else acc)
          ix.ix_spec_done []
      in
      let units =
        Hashtbl.fold
          (fun (sp, _, _) _ acc -> if sp = spec then acc + 1 else acc)
          ix.ix_state_done 0
        + List.length dones
      in
      let states =
        Hashtbl.fold
          (fun (sp, _) n acc -> if sp = spec then max n acc else acc)
          ix.ix_frontier 0
      in
      match dones with
      | ri :: _ ->
        let failed = ri.ri_failures <> [] || ri.ri_worker_crashes <> [] in
        let tripped =
          match ri.ri_budget with
          | Some b -> b.Budget.st_tripped <> None
          | None -> false
        in
        {
          j_spec = spec;
          j_params = (if params = "" then ri.ri_params else params);
          j_status =
            (if failed then `Failed
             else if tripped then `Degraded
             else `Complete);
          j_tier = Some ri.ri_tier;
          j_units = units;
          j_states = max states ri.ri_outcomes;
          j_failures = List.length ri.ri_failures;
          j_budget = ri.ri_budget;
        }
      | [] ->
        {
          j_spec = spec;
          j_params = params;
          j_status = `In_flight;
          j_tier = Option.map fst (Hashtbl.find_opt ix.ix_tier spec);
          j_units = units;
          j_states = states;
          j_failures =
            List.length
              (Option.value (Hashtbl.find_opt ix.ix_cex spec) ~default:[]);
          j_budget = None;
        })
    ix.ix_spec_order
  |> List.rev

let status_name = function
  | `Complete -> "complete"
  | `Degraded -> "degraded"
  | `Failed -> "FAILED"
  | `In_flight -> "in-flight"

let pp_job ppf j =
  Fmt.pf ppf "%-36s %-9s %-10s %6d units %8d states %3d failure%s" j.j_spec
    (status_name j.j_status)
    (Option.value j.j_tier ~default:"-")
    j.j_units j.j_states j.j_failures
    (if j.j_failures = 1 then "" else "s");
  match j.j_budget with
  | Some b ->
    Fmt.pf ppf "  [%.2fs, %d states%s]" b.Budget.st_elapsed_s
      b.Budget.st_states
      (match b.Budget.st_tripped with
      | Some r -> ", tripped: " ^ r
      | None -> "")
  | None -> ()

let pp_jobs ppf jobs =
  if jobs = [] then Fmt.pf ppf "no journaled runs@."
  else begin
    Fmt.pf ppf "%-36s %-9s %-10s %s@." "Spec" "Status" "Tier" "Progress";
    List.iter (fun j -> Fmt.pf ppf "%a@." pp_job j) jobs
  end
