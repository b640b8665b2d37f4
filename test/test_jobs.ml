(* Tests for the parallel experiment scheduler (Sb_jobs) and its wiring
   into the report layer: a pool of forked workers must reproduce the
   sequential results, the on-disk cache must satisfy hits without
   forking, the cache key must move when any knob moves, and a worker
   that dies without reporting must surface as a failure, not a hang. *)

module Pool = Sb_jobs.Pool
module Cache = Sb_jobs.Cache
module Experiments = Sb_report.Experiments

let contains haystack needle =
  let n = String.length needle in
  let rec loop i =
    if i + n > String.length haystack then false
    else String.sub haystack i n = needle || loop (i + 1)
  in
  loop 0

let tmp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))
  in
  Cache.mkdir_p dir;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Pool basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_positional_results () =
  let tasks =
    List.init 7 (fun i ->
        Pool.task ~label:(string_of_int i) (fun () ->
            (* stagger so completion order differs from task order *)
            if i mod 2 = 0 then Unix.sleepf 0.02;
            i * i))
  in
  List.iter
    (fun jobs ->
      let results = Pool.run ~jobs tasks in
      Alcotest.(check int) "one result per task" 7 (List.length results);
      List.iteri
        (fun i -> function
          | Pool.Done v | Pool.Retried (v, _) ->
            Alcotest.(check int) (Printf.sprintf "task %d (j%d)" i jobs) (i * i) v
          | Pool.Failed f -> Alcotest.fail (Pool.failure_message f))
        results)
    [ 1; 3 ];
  (* a single task without a deadline runs in the caller's process at
     any [jobs] *)
  let stats = Pool.stats () in
  match Pool.run ~jobs:2 ~stats [ Pool.task ~label:"pid" Unix.getpid ] with
  | [ Pool.Done pid ] ->
    Alcotest.(check int) "single task in the caller's process" (Unix.getpid ())
      pid;
    Alcotest.(check int) "nothing forked" 0 stats.Pool.forked
  | _ -> Alcotest.fail "unexpected outcome shape"

let test_thunk_exception_is_failed () =
  let tasks =
    [
      Pool.task ~label:"ok" (fun () -> 1);
      Pool.task ~label:"boom" (fun () -> failwith "kernel exploded");
      Pool.task ~label:"ok2" (fun () -> 3);
    ]
  in
  List.iter
    (fun jobs ->
      match Pool.run ~jobs tasks with
      | [ Pool.Done 1; Pool.Failed f; Pool.Done 3 ] ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions cause (j%d)" jobs)
          true
          (contains (Pool.failure_message f) "kernel exploded");
        Alcotest.(check bool)
          "kind is Crashed" true
          (f.Pool.fl_kind = Pool.Crashed)
      | _ -> Alcotest.fail "unexpected outcome shape")
    [ 1; 2 ]

let test_dead_worker_reported () =
  (* A worker that exits without writing a result must come back as
     [Failed] with the wait status — and must not wedge the pool or eat
     its siblings' results. *)
  let tasks =
    [
      Pool.task ~label:"before" (fun () -> "before");
      Pool.task ~label:"deserter" (fun () ->
          Unix._exit 3 (* dies without marshalling anything *));
      Pool.task ~label:"after" (fun () -> "after");
    ]
  in
  let stats = Pool.stats () in
  match Pool.run ~jobs:3 ~stats tasks with
  | [ Pool.Done "before"; Pool.Failed f; Pool.Done "after" ] ->
    Alcotest.(check bool)
      "status in message" true
      (contains f.Pool.fl_detail "exited with code 3");
    Alcotest.(check int) "failure counted" 1 stats.Pool.failed
  | _ -> Alcotest.fail "unexpected outcome shape"

let test_sigkilled_worker_reported () =
  (* the harsher death: the worker is killed by a signal mid-thunk *)
  let tasks =
    [
      Pool.task ~label:"victim" (fun () ->
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          (* not reached *)
          "unreachable");
      Pool.task ~label:"survivor" (fun () -> "alive");
    ]
  in
  match Pool.run ~jobs:2 tasks with
  | [ Pool.Failed f; Pool.Done "alive" ] ->
    Alcotest.(check bool)
      "signal named" true
      (contains f.Pool.fl_detail "signal")
  | _ -> Alcotest.fail "unexpected outcome shape"

let test_truncated_payload_reported () =
  (* a worker that exits cleanly but with an empty/partial pipe payload
     must not wedge the parent's Marshal read: the unparsable payload
     surfaces as Failed, even though the exit status says success *)
  let tasks =
    [
      Pool.task ~label:"truncator" (fun () -> Unix._exit 0);
      Pool.task ~label:"whole" (fun () -> ());
    ]
  in
  match Pool.run ~jobs:2 tasks with
  | [ Pool.Failed f; Pool.Done () ] ->
    Alcotest.(check bool)
      "reports the missing result" true
      (contains f.Pool.fl_detail "without reporting")
  | _ -> Alcotest.fail "unexpected outcome shape"

(* ------------------------------------------------------------------ *)
(* Persistent workers                                                  *)
(* ------------------------------------------------------------------ *)

(* [pid] runs: it exists and is not a zombie waiting to be reaped. *)
let alive pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | stat -> stat.[String.rindex stat ')' + 2] <> 'Z'
  | exception Sys_error _ -> (
    try
      Unix.kill pid 0;
      true
    with Unix.Unix_error _ -> false)

let wait_dead pid =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while alive pid && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done

let run_one s req =
  let got = ref None in
  Pool.Sched.submit s ~label:"one" req ~k:(fun o -> got := Some o);
  Pool.Sched.drain s;
  match !got with
  | Some (Pool.Done v) -> v
  | Some (Pool.Failed f) -> Alcotest.fail (Pool.failure_message f)
  | _ -> Alcotest.fail "no outcome"

let test_idle_worker_holds_no_socket () =
  (* the worker forks while this process holds one end of a socket pair;
     once this process closes it, the peer must read end of file although
     the worker lives on, idle *)
  let mine, peer = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let s = Pool.Sched.create ~jobs:1 ~work:Unix.getpid () in
  Fun.protect ~finally:(fun () ->
      Pool.Sched.close s;
      Unix.close peer)
  @@ fun () ->
  let worker = run_one s () in
  Unix.close mine;
  Alcotest.(check bool) "worker alive and idle" true
    (alive worker && Pool.Sched.idle s);
  match Unix.select [ peer ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "the peer never read end of file"
  | _ ->
    Alcotest.(check int) "the peer reads end of file" 0
      (Unix.read peer (Bytes.create 1) 0 1)

let test_workers_die_with_scheduler () =
  (* a child process runs a scheduler with two idle workers and is
     SIGKILLed: with their request pipes closed, both workers exit *)
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (try
       Unix.close r;
       let s = Pool.Sched.create ~jobs:2 ~work:Unix.getpid () in
       let pids = ref [] in
       for _ = 1 to 2 do
         Pool.Sched.submit s ~label:"pid" () ~k:(function
           | Pool.Done pid -> pids := string_of_int pid :: !pids
           | _ -> ())
       done;
       Pool.Sched.drain s;
       let line = String.concat " " !pids ^ "\n" in
       ignore (Unix.write_substring w line 0 (String.length line));
       Unix.sleepf 60.0
     with _ -> ());
    Unix._exit 0
  | sched ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let workers =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          List.map int_of_string (String.split_on_char ' ' (input_line ic)))
    in
    Unix.kill sched Sys.sigkill;
    ignore (Unix.waitpid [] sched);
    Alcotest.(check int) "two workers" 2 (List.length workers);
    List.iter
      (fun pid ->
        wait_dead pid;
        Alcotest.(check bool) (Printf.sprintf "worker %d exited" pid) false
          (alive pid))
      workers

let test_idle_worker_death () =
  (* a worker SIGKILLed while idle fails the next request's write with
     EPIPE.  That must not kill this process, which does not ignore
     SIGPIPE, nor count as an attempt: a fresh worker runs the request *)
  let stats = Pool.stats () in
  let s = Pool.Sched.create ~jobs:1 ~stats ~retries:0 ~work:Unix.getpid () in
  Fun.protect ~finally:(fun () -> Pool.Sched.close s) @@ fun () ->
  let first = run_one s () in
  Unix.kill first Sys.sigkill;
  wait_dead first;
  let second = run_one s () in
  Alcotest.(check bool) "a fresh worker ran it" true (second <> first);
  Alcotest.(check int) "two attempts" 2 stats.Pool.executed;
  Alcotest.(check int) "a replacement forked" 2 stats.Pool.forked;
  Alcotest.(check int) "nothing failed" 0 stats.Pool.failed

(* ------------------------------------------------------------------ *)
(* Deadlines, retries, quarantine                                      *)
(* ------------------------------------------------------------------ *)

let test_deadline_kills_straggler () =
  let tasks =
    [
      Pool.task ~label:"hang" (fun () ->
          Unix.sleepf 30.0;
          "never");
      Pool.task ~label:"fast" (fun () -> "fast");
    ]
  in
  let stats = Pool.stats () in
  let t0 = Unix.gettimeofday () in
  (match Pool.run ~jobs:2 ~stats ~deadline:0.5 tasks with
  | [ Pool.Failed f; Pool.Done "fast" ] ->
    Alcotest.(check bool) "kind is Timed_out" true (f.Pool.fl_kind = Pool.Timed_out);
    Alcotest.(check bool) "deadline in message" true (contains f.Pool.fl_detail "deadline")
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check bool)
    "returned promptly, not after 30s" true
    (Unix.gettimeofday () -. t0 < 10.0);
  Alcotest.(check int) "timeout counted" 1 stats.Pool.timed_out;
  Alcotest.(check int) "timeout is also a failure" 1 stats.Pool.failed

let test_deadline_applies_at_jobs_1 () =
  (* a deadline forces the forked path even sequentially: the straggler
     must still be killable *)
  let tasks = [ Pool.task ~label:"hang1" (fun () -> Unix.sleepf 30.0) ] in
  match Pool.run ~jobs:1 ~deadline:0.3 tasks with
  | [ Pool.Failed f ] ->
    Alcotest.(check bool) "timed out" true (f.Pool.fl_kind = Pool.Timed_out)
  | _ -> Alcotest.fail "unexpected outcome shape"

let test_retry_recovers_flaky_task () =
  (* fails on the first attempt, succeeds on the second: the flag file
     makes the flakiness visible across the forked processes *)
  let flag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb_flaky_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  let tasks =
    [
      Pool.task ~label:"flaky" (fun () ->
          if Sys.file_exists flag then 42
          else begin
            let oc = open_out flag in
            close_out oc;
            failwith "first attempt bombs"
          end);
    ]
  in
  let stats = Pool.stats () in
  let result = Pool.run ~jobs:2 ~stats ~retries:2 ~backoff:0.01 tasks in
  if Sys.file_exists flag then Sys.remove flag;
  (match result with
  | [ Pool.Retried (42, 1) ] -> ()
  | [ Pool.Done _ ] -> Alcotest.fail "retry not surfaced as Retried"
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check int) "retry counted" 1 stats.Pool.retried;
  Alcotest.(check int) "both attempts executed" 2 stats.Pool.executed;
  Alcotest.(check int) "no terminal failure" 0 stats.Pool.failed

let test_retries_exhausted_is_failed () =
  let tasks = [ Pool.task ~label:"always" (fun () -> failwith "always bombs") ] in
  let stats = Pool.stats () in
  (match Pool.run ~jobs:2 ~stats ~retries:1 ~backoff:0.01 tasks with
  | [ Pool.Failed f ] ->
    Alcotest.(check bool) "crashed" true (f.Pool.fl_kind = Pool.Crashed);
    Alcotest.(check int) "both attempts recorded" 2 f.Pool.fl_attempts
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check int) "one retry scheduled" 1 stats.Pool.retried;
  Alcotest.(check int) "terminal failure counted" 1 stats.Pool.failed

let test_quarantine_after_repeated_failures () =
  Pool.reset_quarantine ();
  let mk () = [ Pool.task ~label:"repeat-offender" (fun () -> failwith "bombs") ] in
  (* quarantine_after defaults to 3: three failing runs accumulate the
     budget... *)
  for _ = 1 to !Pool.quarantine_after do
    match Pool.run ~jobs:2 (mk ()) with
    | [ Pool.Failed f ] ->
      Alcotest.(check bool) "still actually run" true (f.Pool.fl_kind = Pool.Crashed)
    | _ -> Alcotest.fail "unexpected outcome shape"
  done;
  (* ...and the next run is skipped instantly without forking *)
  let stats = Pool.stats () in
  (match Pool.run ~jobs:2 ~stats (mk ()) with
  | [ Pool.Failed f ] ->
    Alcotest.(check bool) "quarantined" true (f.Pool.fl_kind = Pool.Quarantined);
    Alcotest.(check int) "no attempt run" 0 f.Pool.fl_attempts
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check int) "nothing forked" 0 stats.Pool.forked;
  Alcotest.(check int) "quarantine counted" 1 stats.Pool.quarantined;
  Pool.reset_quarantine ();
  (* after a reset the task runs again *)
  match Pool.run ~jobs:2 (mk ()) with
  | [ Pool.Failed f ] ->
    Alcotest.(check bool) "runs again after reset" true (f.Pool.fl_kind = Pool.Crashed)
  | _ -> Alcotest.fail "unexpected outcome shape"

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_without_fork () =
  let dir = tmp_dir "sb_jobs_cache" in
  let cache = Cache.create ~dir in
  let tasks () =
    List.init 3 (fun i ->
        Pool.task
          ~key:(Cache.fingerprint ("cell", i))
          ~label:(string_of_int i)
          (fun () -> i + 100))
  in
  let cold = Pool.stats () in
  (match Pool.run ~jobs:2 ~cache ~stats:cold (tasks ()) with
  | [ Pool.Done 100; Pool.Done 101; Pool.Done 102 ] -> ()
  | _ -> Alcotest.fail "cold run wrong");
  Alcotest.(check int) "cold: all executed" 3 cold.Pool.executed;
  (* three tasks on two persistent workers *)
  Alcotest.(check int) "cold: all forked" 2 cold.Pool.forked;
  Alcotest.(check int) "cold: no hits" 0 cold.Pool.cache_hits;
  let warm = Pool.stats () in
  (match Pool.run ~jobs:2 ~cache ~stats:warm (tasks ()) with
  | [ Pool.Done 100; Pool.Done 101; Pool.Done 102 ] -> ()
  | _ -> Alcotest.fail "warm run wrong");
  Alcotest.(check int) "warm: nothing executed" 0 warm.Pool.executed;
  Alcotest.(check int) "warm: nothing forked" 0 warm.Pool.forked;
  Alcotest.(check int) "warm: all hits" 3 warm.Pool.cache_hits;
  (* the sequential path uses the same cache *)
  let seq = Pool.stats () in
  ignore (Pool.run ~jobs:1 ~cache ~stats:seq (tasks ()));
  Alcotest.(check int) "seq: all hits too" 3 seq.Pool.cache_hits;
  Cache.clear cache;
  rm_rf dir

let test_cache_rejects_corruption () =
  let dir = tmp_dir "sb_jobs_corrupt" in
  let cache = Cache.create ~dir in
  Cache.store cache ~key:"deadbeef" 42;
  Alcotest.(check (option int)) "round trip" (Some 42) (Cache.load cache ~key:"deadbeef");
  (* truncate the file: load must degrade to a miss, not an exception *)
  let file =
    Filename.concat dir
      (List.find (fun f -> Filename.check_suffix f ".cache") (Array.to_list (Sys.readdir dir)))
  in
  let oc = open_out file in
  output_string oc "garbage";
  close_out oc;
  Alcotest.(check (option int)) "corrupt is a miss" None (Cache.load cache ~key:"deadbeef");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Fsck                                                                *)
(* ------------------------------------------------------------------ *)

module Fsck = Sb_jobs.Fsck

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file contents =
  Out_channel.with_open_bin file (fun oc -> output_string oc contents)

(* A row entry is the marshalled key followed by the marshalled value,
   byte for byte what earlier releases wrote, so their stores still hit. *)
let test_row_layout_unchanged () =
  let dir = tmp_dir "sb_jobs_layout" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let v = ([ 1; 2; 3 ], "row", 4.5) in
  Cache.store cache ~key:"layout" v;
  Alcotest.(check string) "key then value"
    (Marshal.to_string "layout" [] ^ Marshal.to_string v [])
    (read_file (Filename.concat dir "sb_layout.cache"));
  (* and a file written that way loads *)
  write_file
    (Filename.concat dir "sb_older.cache")
    (Marshal.to_string "older" [] ^ Marshal.to_string 17 []);
  Alcotest.(check (option int)) "older entry hits" (Some 17)
    (Cache.load cache ~key:"older")

(* A streamed entry is whole only through its end record: the shared
   check finds a file cut between two records, or with bytes after the
   end, and so do the create-time sweep and fsck. *)
let test_streamed_entry_checked () =
  let dir = tmp_dir "sb_jobs_stream" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  let key = "ckpt_stream" in
  let file = Filename.concat dir ("sb_" ^ key ^ ".cache") in
  Cache.store_channel cache ~key (fun oc ->
      Cache.output_record oc "head";
      List.iter (Cache.output_record oc) [ 1; 2; 3 ];
      Cache.output_end oc);
  let read ic =
    let head : string = Option.get (Cache.input_record ic) in
    let rec ints acc =
      match (Cache.input_record ic : int option) with
      | Some i -> ints (i :: acc)
      | None -> List.rev acc
    in
    (head, ints [])
  in
  Alcotest.(check (option (pair string (list int)))) "records round trip"
    (Some ("head", [ 1; 2; 3 ])) (Cache.load_channel cache ~key read);
  let check () =
    match Cache.check_entry ~file ~key with
    | Ok () -> "ok"
    | Error (Cache.Undecodable _) -> "undecodable"
    | Error (Cache.Unreadable _) -> "unreadable"
    | Error (Cache.Stored_key _) -> "stored-key"
  in
  Alcotest.(check string) "whole entry" "ok" (check ());
  let whole = read_file file in
  let end_len = String.length (Marshal.to_string None []) in
  (* the checkpoint-smoke CI job cuts this many bytes off a checkpoint *)
  Alcotest.(check int) "the end record is 21 bytes" 21 end_len;
  let without_end = String.sub whole 0 (String.length whole - end_len) in
  write_file file without_end;
  Alcotest.(check string) "cut before the end record" "undecodable" (check ());
  write_file file (whole ^ "x");
  Alcotest.(check string) "bytes after the end record" "undecodable" (check ());
  write_file file without_end;
  (match Fsck.scan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check int) "fsck: truncated" 1 r.Fsck.truncated);
  Cache.reset_evictions ();
  ignore (Cache.create ~dir);
  Alcotest.(check bool) "swept at create" false (Sys.file_exists file);
  Alcotest.(check int) "sweep counted" 1 (Cache.evictions ())

let fsck_counts r =
  (r.Fsck.ok, r.Fsck.truncated, r.Fsck.key_mismatch, r.Fsck.stale_tmp,
   r.Fsck.live_tmp)

let test_fsck_classifies_damage () =
  let dir = tmp_dir "sb_jobs_fsck" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  Cache.store cache ~key:"good" 1;
  Cache.store cache ~key:"torn" 2;
  Cache.store cache ~key:"moved" 3;
  (* tear one entry *)
  let oc = open_out (Filename.concat dir "sb_torn.cache") in
  output_string oc "garbage";
  close_out oc;
  (* put another under the wrong name *)
  Sys.rename
    (Filename.concat dir "sb_moved.cache")
    (Filename.concat dir "sb_elsewhere.cache");
  (* a temp file whose writer is long gone, and one whose writer lives *)
  let touch name =
    let oc = open_out (Filename.concat dir name) in
    close_out oc
  in
  touch "sb_x.cache.tmp.999999999";
  touch (Printf.sprintf "sb_y.cache.tmp.%d" (Unix.getpid ()));
  (* and a file fsck must never classify (no sb_ prefix) *)
  touch "README";
  (match Fsck.scan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let ok, truncated, mismatch, stale, live = fsck_counts r in
    Alcotest.(check int) "ok entries" 1 ok;
    Alcotest.(check int) "truncated" 1 truncated;
    Alcotest.(check int) "key mismatch" 1 mismatch;
    Alcotest.(check int) "stale tmp" 1 stale;
    Alcotest.(check int) "live tmp" 1 live;
    Alcotest.(check bool) "dirty store is not clean" false (Fsck.clean r);
    Alcotest.(check int) "nothing removed without repair" 0 r.Fsck.repaired);
  (* a dry scan removed nothing *)
  Alcotest.(check bool) "torn file still there" true
    (Sys.file_exists (Filename.concat dir "sb_torn.cache"));
  (* repair evicts exactly the damage *)
  (match Fsck.scan ~repair:true ~dir () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "three repaired" 3 r.Fsck.repaired;
    Alcotest.(check int) "none unrepairable" 0 r.Fsck.unrepairable);
  Alcotest.(check bool) "good entry survived" true
    (Sys.file_exists (Filename.concat dir "sb_good.cache"));
  Alcotest.(check bool) "live tmp survived" true
    (Sys.file_exists
       (Filename.concat dir (Printf.sprintf "sb_y.cache.tmp.%d" (Unix.getpid ()))));
  Alcotest.(check bool) "unrelated file untouched" true
    (Sys.file_exists (Filename.concat dir "README"));
  Alcotest.(check bool) "torn file evicted" false
    (Sys.file_exists (Filename.concat dir "sb_torn.cache"));
  (* after repair the store scans clean, and the good entry still loads *)
  (match Fsck.scan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check bool) "clean after repair" true (Fsck.clean r));
  Alcotest.(check (option int)) "good entry still loads" (Some 1)
    (Cache.load cache ~key:"good")

let test_fsck_json_report () =
  let dir = tmp_dir "sb_jobs_fsck_json" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cache = Cache.create ~dir in
  Cache.store cache ~key:"fine" 9;
  let oc = open_out (Filename.concat dir "sb_bad.cache") in
  output_string oc "x";
  close_out oc;
  match Fsck.scan ~dir () with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let j = Fsck.report_to_json r in
    let int_field name =
      match Option.bind (Sb_util.Json.member name j) Sb_util.Json.int_opt with
      | Some n -> n
      | None -> Alcotest.fail ("missing field " ^ name)
    in
    Alcotest.(check int) "ok count" 1 (int_field "ok");
    Alcotest.(check int) "truncated count" 1 (int_field "truncated");
    (match Sb_util.Json.member "clean" j with
    | Some (Sb_util.Json.Bool false) -> ()
    | _ -> Alcotest.fail "clean must be false");
    (* only the damaged entries are listed *)
    match Sb_util.Json.member "entries" j with
    | Some (Sb_util.Json.List [ Sb_util.Json.Obj fields ]) ->
      (match List.assoc_opt "verdict" fields with
      | Some (Sb_util.Json.String "truncated") -> ()
      | _ -> Alcotest.fail "expected a truncated verdict")
    | _ -> Alcotest.fail "expected exactly one listed entry"

let test_fingerprint_moves_with_knobs () =
  let base_config = Experiments.quick_config in
  let arch = Sb_isa.Arch_sig.Sba in
  let key ?(config = base_config) column =
    Option.get (Experiments.column_key ~config column)
  in
  let fp ?config ?(arch = arch) ?(cells = Experiments.suite_cells) dbt =
    key ?config (Experiments.version_column ~arch cells dbt)
  in
  let base = fp Sb_dbt.Config.baseline in
  Alcotest.(check string) "deterministic" base (fp Sb_dbt.Config.baseline);
  let paper =
    List.hd (Experiments.paper_columns ~tag:"fig7" ~arch Experiments.suite_cells)
  in
  let variants =
    [
      ("arch", fp ~arch:Sb_isa.Arch_sig.Vlx Sb_dbt.Config.baseline);
      ("kind", fp ~cells:(Experiments.workload_cells 7) Sb_dbt.Config.baseline);
      ("scale", fp ~config:{ base_config with Experiments.scale = base_config.Experiments.scale + 1 }
           Sb_dbt.Config.baseline);
      ("repeats", fp ~config:{ base_config with Experiments.repeats = base_config.Experiments.repeats + 1 }
           Sb_dbt.Config.baseline);
      ( "switch point",
        fp
          ~config:
            {
              base_config with
              Experiments.switch_at = Some Simbench.Checkpoint.Kernel_phase;
            }
          Sb_dbt.Config.baseline );
      ( "engine knob",
        fp { Sb_dbt.Config.baseline with Sb_dbt.Config.chain_direct = not Sb_dbt.Config.baseline.Sb_dbt.Config.chain_direct } );
      ( "front cache knob",
        fp { Sb_dbt.Config.baseline with Sb_dbt.Config.front_cache = not Sb_dbt.Config.baseline.Sb_dbt.Config.front_cache } );
      ("cell list", fp ~cells:(List.tl Experiments.suite_cells) Sb_dbt.Config.baseline);
      ( "iteration count",
        fp
          ~cells:
            (match Experiments.suite_cells with
            | c :: rest -> { c with Experiments.iters = Some 7 } :: rest
            | [] -> [])
          Sb_dbt.Config.baseline );
      ( "paper-column identity",
        key
          {
            (Experiments.version_column ~arch Experiments.suite_cells
               Sb_dbt.Config.baseline)
            with
            Experiments.key = paper.Experiments.key;
          } );
    ]
  in
  List.iter
    (fun (what, fp') ->
      Alcotest.(check bool) (what ^ " changes the key") true (fp' <> base))
    variants;
  (* and the variant keys are pairwise distinct *)
  let keys = base :: List.map snd variants in
  let uniq = List.sort_uniq compare keys in
  Alcotest.(check int) "all keys distinct" (List.length keys) (List.length uniq)

(* ------------------------------------------------------------------ *)
(* Pool == sequential on real experiment cells                         *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_sequential () =
  (* three columns on two workers: one worker measures two of them, so a
     warm worker is held to the counters of the sequential path *)
  let config = Experiments.quick_config in
  let columns =
    [
      (Sb_isa.Arch_sig.Sba, Sb_dbt.Config.baseline);
      (Sb_isa.Arch_sig.Vlx, Sb_dbt.Config.baseline);
      (Sb_isa.Arch_sig.Sba, Option.get (Sb_dbt.Version.find "v2.6.0"));
    ]
  in
  let rows ~jobs =
    Experiments.reset_memo ();
    let opts =
      { Experiments.jobs; cache_dir = None; deadline = None; retries = 0 }
    in
    List.concat
      (Experiments.columns ~opts ~config
         (List.map
            (fun (arch, dbt) ->
              Experiments.version_column ~arch Experiments.suite_cells dbt)
            columns))
  in
  let seq = rows ~jobs:1 in
  let par = rows ~jobs:2 in
  Alcotest.(check int) "same cell count" (List.length seq) (List.length par);
  List.iter2
    (fun (s : Experiments.row) (p : Experiments.row) ->
      Alcotest.(check string) "same benchmark" s.Experiments.row_cell p.Experiments.row_cell;
      Alcotest.(check string) "same engine" s.Experiments.row_engine p.Experiments.row_engine;
      Alcotest.(check string) "same arch" s.Experiments.row_arch p.Experiments.row_arch;
      Alcotest.(check int) "same iters" s.Experiments.row_iters p.Experiments.row_iters;
      Alcotest.(check string) "status ok" "ok" p.Experiments.row_status;
      (* instruction and event counts are deterministic across processes;
         wall times are not, so the times are only sanity-checked *)
      Alcotest.(check int) "same kernel insns" s.Experiments.row_kernel_insns
        p.Experiments.row_kernel_insns;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "same kernel_perf (%s, %s)" p.Experiments.row_cell
           p.Experiments.row_arch)
        s.Experiments.row_perf p.Experiments.row_perf;
      Alcotest.(check bool) "positive time" true (p.Experiments.row_seconds > 0.))
    seq par

let test_columns_cached_on_disk () =
  let dir = tmp_dir "sb_jobs_cells" in
  let config = Experiments.quick_config in
  let arch = Sb_isa.Arch_sig.Sba in
  let opts =
    { Experiments.jobs = 2; cache_dir = Some dir; deadline = None; retries = 0 }
  in
  let rows ~opts =
    Experiments.reset_memo ();
    List.concat
      (Experiments.columns ~opts ~config
         [
           Experiments.version_column ~arch Experiments.suite_cells
             Sb_dbt.Config.baseline;
         ])
  in
  let first = rows ~opts in
  (* second pass: memo was dropped, so everything must come from disk —
     including the measured times, which therefore match exactly *)
  let second = rows ~opts in
  List.iter2
    (fun (a : Experiments.row) (b : Experiments.row) ->
      Alcotest.(check string) "cell" a.Experiments.row_cell b.Experiments.row_cell;
      Alcotest.(check (float 0.)) "seconds bit-identical from cache"
        a.Experiments.row_seconds b.Experiments.row_seconds)
    first second;
  rm_rf dir

(* --- cancellation tokens & external scheduling ----------------------- *)

let test_cancelled_token_skips_everything () =
  let tok = Pool.token () in
  Pool.cancel tok;
  let stats = Pool.stats () in
  let tasks =
    List.init 3 (fun i -> Pool.task ~label:(Printf.sprintf "t%d" i) (fun () -> i))
  in
  List.iter
    (fun jobs ->
      List.iter
        (function
          | Pool.Failed f ->
            Alcotest.(check bool) "kind is Cancelled" true
              (f.Pool.fl_kind = Pool.Cancelled);
            Alcotest.(check int) "no attempts run" 0 f.Pool.fl_attempts
          | _ -> Alcotest.fail "expected Failed Cancelled")
        (Pool.run ~jobs ~stats ~cancel:tok tasks))
    [ 1; 3 ];
  Alcotest.(check int) "all counted cancelled" 6 stats.Pool.cancelled;
  Alcotest.(check int) "nothing forked" 0 stats.Pool.forked

let test_sequential_thunk_cancels_remainder () =
  (* at jobs=1 the thunks run in-process, so a task can cancel the rest *)
  let tok = Pool.token () in
  let task label v = Pool.task ~label (fun () -> v) in
  let tasks =
    [
      Pool.task ~label:"first" (fun () ->
          Pool.cancel tok;
          "ran");
      task "second" "ran";
      task "third" "ran";
    ]
  in
  match Pool.run ~jobs:1 ~cancel:tok tasks with
  | [ Pool.Done "ran"; Pool.Failed f2; Pool.Failed f3 ] ->
    Alcotest.(check bool) "second cancelled" true
      (f2.Pool.fl_kind = Pool.Cancelled);
    Alcotest.(check bool) "third cancelled" true
      (f3.Pool.fl_kind = Pool.Cancelled)
  | _ -> Alcotest.fail "expected Done then two Cancelled"

let test_sched_external_select_loop () =
  (* the serve daemon's usage: callers own the select loop and feed
     readable fds to pump *)
  let stats = Pool.stats () in
  let s = Pool.Sched.create ~jobs:2 ~stats ~work:(fun i -> i * 3) () in
  Fun.protect ~finally:(fun () -> Pool.Sched.close s) @@ fun () ->
  let got = Array.make 5 None in
  for i = 0 to 4 do
    Pool.Sched.submit s ~label:(Printf.sprintf "mul%d" i) i ~k:(fun o ->
        got.(i) <- Some o)
  done;
  let deadline = Unix.gettimeofday () +. 60.0 in
  while (not (Pool.Sched.idle s)) && Unix.gettimeofday () < deadline do
    let tmo = Pool.Sched.timeout s in
    let tmo = if tmo < 0.0 then 0.2 else Float.min tmo 0.2 in
    let readable, _, _ =
      try Unix.select (Pool.Sched.fds s) [] [] tmo
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Pool.Sched.pump s ~readable
  done;
  Alcotest.(check bool) "scheduler drained" true (Pool.Sched.idle s);
  Array.iteri
    (fun i o ->
      match o with
      | Some (Pool.Done v) -> Alcotest.(check int) "positional result" (i * 3) v
      | _ -> Alcotest.fail "missing or failed outcome")
    got;
  Alcotest.(check int) "five attempts run" 5 stats.Pool.executed;
  Alcotest.(check int) "on two workers" 2 stats.Pool.forked

let test_sched_cancel_drops_queued_only () =
  (* cancelling from a completion callback must drop queued work without
     SIGKILLing the worker that is already running *)
  let stats = Pool.stats () in
  let s =
    Pool.Sched.create ~jobs:1 ~stats
      ~work:(fun pause ->
        Unix.sleepf pause;
        "ran")
      ()
  in
  Fun.protect ~finally:(fun () -> Pool.Sched.close s) @@ fun () ->
  let tok = Pool.token () in
  let outcomes = Array.make 4 None in
  Pool.Sched.submit s ~label:"runner" 0.05 ~k:(fun o ->
      Pool.cancel tok;
      outcomes.(0) <- Some o);
  for i = 1 to 3 do
    Pool.Sched.submit s ~cancel:tok ~label:(Printf.sprintf "queued%d" i) 0.0
      ~k:(fun o -> outcomes.(i) <- Some o)
  done;
  Pool.Sched.drain s;
  (match outcomes.(0) with
  | Some (Pool.Done "ran") -> ()
  | _ -> Alcotest.fail "running task should complete, not be killed");
  for i = 1 to 3 do
    match outcomes.(i) with
    | Some (Pool.Failed f) ->
      Alcotest.(check bool) "queued task cancelled" true
        (f.Pool.fl_kind = Pool.Cancelled)
    | _ -> Alcotest.fail "queued task should be dropped as Cancelled"
  done;
  Alcotest.(check int) "three cancellations counted" 3 stats.Pool.cancelled;
  Alcotest.(check int) "only the runner forked" 1 stats.Pool.forked;
  Alcotest.(check bool) "drained" true (Pool.Sched.idle s)

let () =
  Random.self_init ();
  Alcotest.run "sb_jobs"
    [
      ( "pool",
        [
          Alcotest.test_case "positional results" `Quick test_positional_results;
          Alcotest.test_case "thunk exception" `Quick test_thunk_exception_is_failed;
          Alcotest.test_case "dead worker" `Quick test_dead_worker_reported;
          Alcotest.test_case "sigkilled worker" `Quick test_sigkilled_worker_reported;
          Alcotest.test_case "truncated payload" `Quick test_truncated_payload_reported;
        ] );
      ( "workers",
        [
          Alcotest.test_case "idle worker holds no socket" `Quick
            test_idle_worker_holds_no_socket;
          Alcotest.test_case "workers die with the scheduler" `Quick
            test_workers_die_with_scheduler;
          Alcotest.test_case "idle worker death is no attempt" `Quick
            test_idle_worker_death;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "deadline kills straggler" `Quick test_deadline_kills_straggler;
          Alcotest.test_case "deadline at jobs=1" `Quick test_deadline_applies_at_jobs_1;
          Alcotest.test_case "retry recovers flaky" `Quick test_retry_recovers_flaky_task;
          Alcotest.test_case "retries exhausted" `Quick test_retries_exhausted_is_failed;
          Alcotest.test_case "quarantine" `Quick test_quarantine_after_repeated_failures;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit without fork" `Quick test_cache_hit_without_fork;
          Alcotest.test_case "corruption is a miss" `Quick test_cache_rejects_corruption;
          Alcotest.test_case "row layout unchanged" `Quick test_row_layout_unchanged;
          Alcotest.test_case "streamed entry checked" `Quick test_streamed_entry_checked;
          Alcotest.test_case "fsck classifies damage" `Quick test_fsck_classifies_damage;
          Alcotest.test_case "fsck json report" `Quick test_fsck_json_report;
          Alcotest.test_case "fingerprint knobs" `Quick test_fingerprint_moves_with_knobs;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancelled token skips all" `Quick
            test_cancelled_token_skips_everything;
          Alcotest.test_case "thunk cancels remainder" `Quick
            test_sequential_thunk_cancels_remainder;
          Alcotest.test_case "external select loop" `Quick
            test_sched_external_select_loop;
          Alcotest.test_case "cancel drops queued only" `Quick
            test_sched_cancel_drops_queued_only;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "pool == sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "disk cache round trip" `Quick test_columns_cached_on_disk;
        ] );
    ]
