(* The write-ahead journal (docs/ROBUSTNESS.md, "Durability"): framing
   and checksums, record round-trips, torn-write recovery by truncation
   at every possible cut point, corrupt-byte recovery, compaction, and
   the resume property itself — a journaled verification replays to
   verdicts identical to an uninterrupted run's. *)

open Fcsl_core
open Fcsl_casestudies

let check = Alcotest.(check bool)

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fcsl-test-journal-%d-%d" (Unix.getpid ()) !n)
    in
    (* discard any leftover from a previous run of the same pid *)
    Journal.close (Journal.openj ~resume:false d);
    d

let crash ?(trace = []) kind msg = Crash.make ~trace kind msg

let sample_records =
  [
    Journal.Spec_begin { spec = "spec-a"; params = "p1" };
    Journal.Tier_begin { spec = "spec-a"; tier = "exhaustive"; seed = None };
    Journal.Frontier { spec = "spec-a"; tier = "exhaustive"; states = 512 };
    Journal.Counterexample
      {
        spec = "spec-a";
        crash =
          crash ~trace:[ "L"; "R"; "env@x" ] Crash.Unsafe_action
            "write to freed cell";
      };
    Journal.State_done
      {
        spec = "spec-a";
        tier = "exhaustive";
        index = 3;
        state =
          {
            Journal.si_outcomes = 17;
            si_diverged = 2;
            si_complete = true;
            si_states = 340;
            si_failures = [ crash Crash.Postcondition "post failed" ];
          };
      };
    Journal.Spec_done
      {
        Journal.ri_spec = "spec-a";
        ri_params = "p1";
        ri_tier = "sampled";
        ri_seed = Some 42;
        ri_initial_states = 7;
        ri_outcomes = 1234;
        ri_diverged = 5;
        ri_complete = false;
        ri_states = 8080;
        ri_failures = [ (3, crash Crash.Postcondition "post failed") ];
        ri_worker_crashes = [ (1, crash Crash.Internal_error "worker died") ];
        ri_budget =
          Some
            {
              Budget.st_elapsed_s = 0.25;
              st_states = 9001;
              st_major_words = 4096;
              st_tripped = Some "state-ceiling";
            };
      };
  ]

(* Structural record equality for tests: traces matter here (the wire
   format round-trips them), so compare pp renderings, which include
   every field. *)
let record_str r = Fmt.str "%a" Journal.pp_record r

let records_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> record_str x = record_str y) a b

(* --- framing --------------------------------------------------------- *)

let test_crc32 () =
  (* the IEEE 802.3 check value: CRC-32 of "123456789" *)
  Alcotest.(check int32) "crc32 check value" 0xCBF43926l
    (Journal.crc32 "123456789");
  Alcotest.(check int32) "crc32 of empty" 0l (Journal.crc32 "");
  check "crc32 detects a flip" false
    (Journal.crc32 "123456789" = Journal.crc32 "123456788")

let test_round_trip () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  List.iter (Journal.append j) sample_records;
  Journal.close j;
  let read_back, torn = Journal.read d in
  Alcotest.(check int) "no torn bytes" 0 torn;
  (* openj writes a Meta record first *)
  match read_back with
  | Journal.Meta { version; _ } :: rest ->
    Alcotest.(check int) "version" 2 version;
    check "records round-trip" true (records_equal sample_records rest)
  | _ -> Alcotest.fail "journal does not start with Meta"

let test_resume_sees_records () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  List.iter (Journal.append j) sample_records;
  Journal.close j;
  let j = Journal.openj ~resume:true d in
  check "spec verdict recovered" true
    (Journal.find_spec_done j ~spec:"spec-a" ~params:"p1" <> None);
  check "unit recovered" true
    (Journal.find_state_done j ~spec:"spec-a" ~tier:"exhaustive" ~index:3
    <> None);
  check "wrong params see nothing" true
    (Journal.find_spec_done j ~spec:"spec-a" ~params:"p2" = None);
  check "counterexample recovered" true
    (Journal.counterexamples j ~spec:"spec-a" <> []);
  (match Journal.last_tier j ~spec:"spec-a" with
  | Some ("exhaustive", None) -> ()
  | _ -> Alcotest.fail "last_tier not recovered");
  Journal.close j;
  (* without ~resume the same directory starts fresh *)
  let j = Journal.openj ~resume:false d in
  check "no resume discards" true
    (Journal.find_spec_done j ~spec:"spec-a" ~params:"p1" = None);
  Journal.close j

let test_params_change_invalidates_units () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  Journal.append j (Journal.Spec_begin { spec = "s"; params = "p1" });
  Journal.append j
    (Journal.State_done
       {
         spec = "s";
         tier = "exhaustive";
         index = 0;
         state =
           {
             Journal.si_outcomes = 1;
             si_diverged = 0;
             si_complete = true;
             si_states = 1;
             si_failures = [];
           };
       });
  check "unit visible under p1" true
    (Journal.find_state_done j ~spec:"s" ~tier:"exhaustive" ~index:0 <> None);
  (* a re-begin under different engine parameters must drop the unit *)
  Journal.append j (Journal.Spec_begin { spec = "s"; params = "p2" });
  check "unit invalidated by params change" true
    (Journal.find_state_done j ~spec:"s" ~tier:"exhaustive" ~index:0 = None);
  Journal.close j

(* --- torn-write recovery -------------------------------------------- *)

let file_bytes path =
  let ic = In_channel.open_bin path in
  let s = In_channel.input_all ic in
  In_channel.close ic;
  s

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd len;
  Unix.close fd

(* Truncate a valid journal at EVERY byte offset of its final record:
   recovery must drop exactly that record (and report the torn bytes),
   never raise, and never surface a half-record. *)
let test_torn_tail_every_offset () =
  let d = tmp_dir () in
  let j = Journal.openj ~fsync:Journal.Never d in
  List.iter (Journal.append j) sample_records;
  Journal.close j;
  let wal = Journal.wal_path d in
  let whole = file_bytes wal in
  let full_len = String.length whole in
  (* locate the final record's frame by reading all-but-last prefix:
     scan lengths from the header *)
  let all, _ = Journal.read d in
  let n_all = List.length all in
  (* byte offset where the last record's frame begins: re-scan frames *)
  let rec frame_end off k =
    if k = 0 then off
    else
      let len =
        Int32.to_int (String.get_int32_le whole off) land 0xffffffff
      in
      frame_end (off + 8 + len) (k - 1)
  in
  let last_start = frame_end (String.length Journal.magic) (n_all - 1) in
  check "last frame is at the tail" true (last_start < full_len);
  let expected_prefix = List.filteri (fun i _ -> i < n_all - 1) all in
  for cut = last_start to full_len - 1 do
    truncate_file wal full_len;
    let oc = open_out_gen [ Open_binary; Open_wronly ] 0o644 wal in
    output_string oc whole;
    close_out oc;
    truncate_file wal cut;
    (* pure read first: reports the cut as torn bytes *)
    let rs, torn = Journal.read d in
    check
      (Printf.sprintf "cut@%d: read drops only the torn record" cut)
      true
      (records_equal rs expected_prefix);
    Alcotest.(check int)
      (Printf.sprintf "cut@%d: torn byte count" cut)
      (cut - last_start) torn;
    (* then a recovering open: truncates physically, keeps the prefix *)
    let j = Journal.openj ~resume:true d in
    check
      (Printf.sprintf "cut@%d: recovery keeps the prefix" cut)
      true
      (records_equal (Journal.recovered j) expected_prefix);
    Alcotest.(check int)
      (Printf.sprintf "cut@%d: truncated bytes" cut)
      (cut - last_start)
      (Journal.truncated_bytes j);
    (* physical truncation happens at open; the close below appends
       this generation's Meta record after the surviving prefix *)
    check
      (Printf.sprintf "cut@%d: WAL physically truncated" cut)
      true
      ((Unix.stat wal).Unix.st_size = last_start);
    Journal.close j
  done

let test_corrupt_byte_mid_file () =
  let d = tmp_dir () in
  let j = Journal.openj ~fsync:Journal.Never d in
  List.iter (Journal.append j) sample_records;
  Journal.close j;
  let wal = Journal.wal_path d in
  let whole = file_bytes wal in
  (* flip one payload byte somewhere after the magic: everything from
     the corrupted record on is dropped, the prefix survives *)
  let pos = String.length Journal.magic + 24 in
  let corrupted = Bytes.of_string whole in
  Bytes.set corrupted pos (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0x40));
  let oc = open_out_gen [ Open_binary; Open_wronly; Open_trunc ] 0o644 wal in
  output_string oc (Bytes.to_string corrupted);
  close_out oc;
  let rs, torn = Journal.read d in
  check "corruption drops a suffix, keeps a prefix" true
    (List.length rs < List.length sample_records + 1);
  check "torn bytes reported" true (torn > 0);
  let j = Journal.openj ~resume:true d in
  check "recovery after corruption does not raise" true
    (List.length (Journal.recovered j) = List.length rs);
  Journal.close j

(* --- compaction ------------------------------------------------------ *)

let test_compaction_preserves_lookups () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  List.iter (Journal.append j) sample_records;
  let units_before = Journal.completed_units j in
  Journal.compact j;
  check "snapshot exists" true (Sys.file_exists (Journal.snapshot_path d));
  check "WAL truncated to header" true
    ((Unix.stat (Journal.wal_path d)).Unix.st_size
    = String.length Journal.magic);
  check "lookup after compaction" true
    (Journal.find_spec_done j ~spec:"spec-a" ~params:"p1" <> None);
  check "units monotone across compaction" true
    (Journal.completed_units j >= units_before);
  Journal.close j;
  (* and across a close/recover cycle *)
  let j = Journal.openj ~resume:true d in
  check "lookup after compaction + reopen" true
    (Journal.find_spec_done j ~spec:"spec-a" ~params:"p1" <> None
    && Journal.find_state_done j ~spec:"spec-a" ~tier:"exhaustive" ~index:3
       <> None);
  check "units monotone across reopen" true
    (Journal.completed_units j >= units_before);
  Journal.close j

let test_auto_compaction () =
  let d = tmp_dir () in
  let j = Journal.openj ~compact_every:32 d in
  for i = 1 to 200 do
    Journal.append j
      (Journal.Frontier { spec = "s"; tier = "exhaustive"; states = i })
  done;
  Journal.close j;
  (* superseded frontiers are dropped: far fewer than 200 live records *)
  let rs, _ = Journal.read d in
  check "auto-compaction bounds the journal" true (List.length rs < 50)

(* --- jobs ------------------------------------------------------------ *)

let test_jobs_statuses () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  List.iter (Journal.append j) sample_records;
  (* a second spec left in flight *)
  Journal.append j (Journal.Spec_begin { spec = "spec-b"; params = "p" });
  Journal.append j
    (Journal.Tier_begin { spec = "spec-b"; tier = "sampled"; seed = Some 7 });
  Journal.close j;
  let rs, _ = Journal.read d in
  let jobs = Journal.jobs_of_records rs in
  Alcotest.(check int) "two jobs" 2 (List.length jobs);
  let find s = List.find (fun jb -> jb.Journal.j_spec = s) jobs in
  check "spec-a failed (has failures)" true
    ((find "spec-a").Journal.j_status = `Failed);
  check "spec-b in flight" true ((find "spec-b").Journal.j_status = `In_flight);
  check "spec-b tier recorded" true
    ((find "spec-b").Journal.j_tier = Some "sampled");
  check "spec-a counts its units" true ((find "spec-a").Journal.j_units >= 1)

(* --- the resume property itself -------------------------------------- *)

let snapshot_triple () =
  Verify.check_triple
    ~world:(Snapshot.world ())
    ~init:(Snapshot.init_states ())
    (Snapshot.read_pair Snapshot.sp_label)
    (Snapshot.read_pair_spec Snapshot.sp_label)

let canon (r : Verify.report) =
  Fmt.str "%s|%b|%s|%d|%d|%d|%b" r.Verify.spec_name (Verify.ok r)
    (Verify.tier_name r.Verify.tier)
    r.Verify.initial_states r.Verify.outcomes r.Verify.diverged
    r.Verify.complete

let test_journaled_verdict_identical () =
  let bare = snapshot_triple () in
  let d = tmp_dir () in
  let j = Journal.openj d in
  let journaled =
    Verify.with_engine ~journal:(Some j) (fun () -> snapshot_triple ())
  in
  Journal.close j;
  Alcotest.(check string)
    "journal-armed run: verdict identical" (canon bare) (canon journaled);
  (* a resumed run replays the journaled verdict wholesale *)
  let j = Journal.openj ~resume:true d in
  let replayed =
    Verify.with_engine ~journal:(Some j) (fun () -> snapshot_triple ())
  in
  Journal.close j;
  Alcotest.(check string)
    "resumed run: verdict identical" (canon bare) (canon replayed)

let test_resume_skips_completed_units () =
  let d = tmp_dir () in
  let j = Journal.openj d in
  let _ = Verify.with_engine ~journal:(Some j) (fun () -> snapshot_triple ()) in
  let units = Journal.completed_units j in
  Journal.close j;
  check "run journaled units" true (units > 0);
  let j = Journal.openj ~resume:true d in
  let _ = Verify.with_engine ~journal:(Some j) (fun () -> snapshot_triple ()) in
  check "replay adds no new units" true (Journal.completed_units j = units);
  Journal.close j

let suite =
  [
    Alcotest.test_case "crc32: check value" `Quick test_crc32;
    Alcotest.test_case "records round-trip through the WAL" `Quick
      test_round_trip;
    Alcotest.test_case "resume recovers lookups; fresh open discards" `Quick
      test_resume_sees_records;
    Alcotest.test_case "a params change invalidates units" `Quick
      test_params_change_invalidates_units;
    Alcotest.test_case "torn tail: truncation at every byte offset" `Quick
      test_torn_tail_every_offset;
    Alcotest.test_case "corrupt byte mid-file: prefix survives" `Quick
      test_corrupt_byte_mid_file;
    Alcotest.test_case "compaction preserves lookups and units" `Quick
      test_compaction_preserves_lookups;
    Alcotest.test_case "auto-compaction bounds the journal" `Quick
      test_auto_compaction;
    Alcotest.test_case "jobs: statuses from records" `Quick test_jobs_statuses;
    Alcotest.test_case "resume property: verdicts identical" `Quick
      test_journaled_verdict_identical;
    Alcotest.test_case "resume replays instead of re-exploring" `Quick
      test_resume_skips_completed_units;
  ]
