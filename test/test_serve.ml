(* Tests for the benchmark service (Sb_serve): the wire protocol must
   round-trip specs and rows and reject malformed or wrong-schema frames
   with precise errors; the daemon — driven here one select-step at a
   time, in-process — must stream rows, deduplicate identical cells
   through the shared store, bound each client's in-flight window, survive
   mid-run cancellation with the pool and cache left consistent, and
   reject bad jobs atomically. *)

module Json = Sb_util.Json
module Protocol = Sb_serve.Protocol
module Serve = Sb_serve.Serve

let contains haystack needle =
  let n = String.length needle in
  let rec loop i =
    if i + n > String.length haystack then false
    else String.sub haystack i n = needle || loop (i + 1)
  in
  loop 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%S in %S)" what needle haystack)
    true (contains haystack needle)

let tmp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) (Random.int 1_000_000))
  in
  Sb_jobs.Cache.mkdir_p dir;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let spec ?(bench = "System Call") ?(engine = "interp")
    ?(arch = Sb_isa.Arch_sig.Sba) ?iters ?(repeats = 1) () =
  {
    Protocol.sp_bench = bench;
    sp_engine = engine;
    sp_arch = arch;
    sp_iters = iters;
    sp_repeats = repeats;
  }

(* ------------------------------------------------------------------ *)
(* Protocol                                                             *)
(* ------------------------------------------------------------------ *)

let test_spec_round_trip () =
  let specs =
    [
      spec ();
      spec ~bench:"Small Blocks" ~engine:"dbt@v2.0.0" ~arch:Sb_isa.Arch_sig.Vlx
        ~iters:123 ~repeats:3 ();
    ]
  in
  List.iter
    (fun sp ->
      match Protocol.spec_of_json (Protocol.spec_to_json sp) with
      | Ok sp' ->
        Alcotest.(check bool) "spec round-trips" true (sp = sp')
      | Error msg -> Alcotest.fail msg)
    specs

let test_spec_key_canonical () =
  (* alias spellings of the same engine share a content address once
     canonicalised — the property the serve dedup relies on *)
  Alcotest.(check string)
    "gem5 canonicalises" "detailed"
    (Simbench.Engines.canonical_name "gem5");
  Alcotest.(check string)
    "hw canonicalises" "native"
    (Simbench.Engines.canonical_name "hw");
  Alcotest.(check string)
    "release aliases canonicalise" "dbt@v2.5.0-rc0"
    (Simbench.Engines.canonical_name "dbt@v2.5.0-rc2");
  let k e =
    Protocol.spec_key
      (spec ~engine:(Simbench.Engines.canonical_name e) ~iters:50 ())
  in
  Alcotest.(check string) "alias keys collide" (k "gem5") (k "detailed");
  Alcotest.(check bool) "different engines differ" true (k "interp" <> k "dbt");
  Alcotest.(check bool)
    "iters moves the key" true
    (Protocol.spec_key (spec ~iters:50 ())
    <> Protocol.spec_key (spec ~iters:51 ()))

let sample_row =
  {
    Sb_report.Experiments.row_cell = "System Call";
    row_engine = "interp";
    row_arch = "sba";
    row_iters = 50;
    row_repeats = 2;
    row_seconds = 0.125;
    row_mean_seconds = 0.25;
    row_samples = [ 0.25; 0.125 ];
    row_kernel_insns = 4242;
    row_perf = [ ("Instructions", 4242); ("Loads", 7) ];
    row_status = "ok";
    row_note = "";
  }

let test_row_round_trip () =
  match Protocol.row_of_json (Protocol.row_to_json sample_row) with
  | Ok row' -> Alcotest.(check bool) "row round-trips" true (sample_row = row')
  | Error msg -> Alcotest.fail msg

let test_decode_errors_name_object () =
  let error what = function
    | Ok _ -> Alcotest.fail (what ^ ": decoded")
    | Error msg -> msg
  in
  let without name = function
    | Json.Obj fields -> Json.Obj (List.remove_assoc name fields)
    | j -> j
  in
  Alcotest.(check string)
    "row" "row: missing string field \"status\""
    (error "row"
       (Protocol.row_of_json
          (without "status" (Protocol.row_to_json sample_row))));
  Alcotest.(check string)
    "hello frame" "hello response: missing string field \"session\""
    (error "hello"
       (Protocol.response_of_line
          (Json.to_string
             (without "session"
                (Protocol.response_to_json
                   (Protocol.Hello
                      { session = "s"; heartbeat = 1.0; miss_limit = 3 }))))));
  Alcotest.(check string)
    "ping frame" "ping request: missing integer field \"seq\""
    (error "ping"
       (Protocol.request_of_line
          (Json.to_string
             (without "seq" (Protocol.request_to_json (Protocol.Ping { seq = 1 }))))))

let test_request_round_trip () =
  let reqs =
    [
      Protocol.Submit { id = "j1"; cells = [ spec ~iters:9 () ]; resume = false };
      Protocol.Submit { id = "j1"; cells = [ spec ~iters:9 () ]; resume = true };
      Protocol.Cancel { id = "j1" };
      Protocol.Ping { seq = 42 };
      Protocol.Status;
      Protocol.Dump;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match
        Protocol.request_of_line (Json.to_string (Protocol.request_to_json req))
      with
      | Ok req' -> Alcotest.(check bool) "request round-trips" true (req = req')
      | Error msg -> Alcotest.fail msg)
    reqs

let test_response_round_trip () =
  let resps =
    [
      Protocol.Hello { session = "s1-7"; heartbeat = 10.0; miss_limit = 3 };
      Protocol.Ack { id = "j"; cells = 3 };
      Protocol.Row
        {
          id = "j";
          key = "abc123";
          cached = true;
          cell = Json.Obj [ ("cell", Json.String "x") ];
        };
      Protocol.Pong { seq = 42 };
      Protocol.Job_done { id = "j"; rows = 2; failed = 1 };
      Protocol.Cancelled { id = "j"; dropped = 4 };
      Protocol.Status_report (Json.Obj [ ("clients", Json.Int 1) ]);
      Protocol.Run_dump { source = "serve"; cells = [ Json.Null ] };
      Protocol.Error_msg { id = Some "j"; message = "nope" };
      Protocol.Error_msg { id = None; message = "nope" };
      Protocol.Bye { reason = "stopping" };
    ]
  in
  List.iter
    (fun resp ->
      match
        Protocol.response_of_line
          (Json.to_string (Protocol.response_to_json resp))
      with
      | Ok resp' ->
        Alcotest.(check bool) "response round-trips" true (resp = resp')
      | Error msg -> Alcotest.fail msg)
    resps

let test_malformed_frame_has_position () =
  match Protocol.request_of_line "{\"schema\": \"x\", " with
  | Ok _ -> Alcotest.fail "parsed garbage"
  | Error msg ->
    check_contains "malformed" msg "malformed frame";
    check_contains "line" msg "line 1";
    check_contains "column" msg "column"

let test_schema_version_rejected () =
  let frame =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.String "simbench-serve-json-0");
           ("op", Json.String "status");
         ])
  in
  (match Protocol.request_of_line frame with
  | Ok _ -> Alcotest.fail "accepted an old schema"
  | Error msg ->
    check_contains "names the offender" msg "simbench-serve-json-0";
    check_contains "names the expectation" msg Protocol.schema);
  match Protocol.request_of_line "{\"op\": \"status\"}" with
  | Ok _ -> Alcotest.fail "accepted an untagged frame"
  | Error msg -> check_contains "missing schema" msg "schema"

let test_v1_schema_migration_error () =
  (* the retired protocol 1 gets a dedicated migration message, not a
     generic mismatch *)
  let frame =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.String Protocol.schema_v1);
           ("op", Json.String "status");
         ])
  in
  match Protocol.request_of_line frame with
  | Ok _ -> Alcotest.fail "accepted protocol 1"
  | Error msg ->
    check_contains "names the old schema" msg Protocol.schema_v1;
    check_contains "tells what changed" msg "heartbeats";
    check_contains "points at the upgrade" msg "upgrade the client"

(* ------------------------------------------------------------------ *)
(* In-process server harness                                            *)
(* ------------------------------------------------------------------ *)

(* in-process tclients are raw sockets that never ping, so the harness
   disables heartbeat dropping by default; the heartbeat tests opt in *)
let with_server ?(jobs = 1) ?(window = 0) ?(heartbeat = 0.0) ?(miss_limit = 3)
    ?cache_dir f =
  let dir = tmp_dir "sb_serve" in
  let path = Filename.concat dir "s.sock" in
  let cfg =
    {
      Serve.default_config with
      Serve.unix_path = Some path;
      jobs;
      window;
      heartbeat;
      miss_limit;
      cache_dir;
    }
  in
  let t = Serve.create cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.close t;
      rm_rf dir)
    (fun () -> f t path)

type tclient = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  mutable session : string;  (* from the hello frame *)
  mutable frames : Protocol.response list;  (* arrival order *)
}

let submit ?(resume = false) id cells = Protocol.Submit { id; cells; resume }

let tclose tc = try Unix.close tc.fd with Unix.Unix_error _ -> ()

let tsend_raw tc line =
  let data = line ^ "\n" in
  let n = Unix.write_substring tc.fd data 0 (String.length data) in
  Alcotest.(check int) "frame written whole" (String.length data) n

let tsend tc req = tsend_raw tc (Json.to_string (Protocol.request_to_json req))

let tread tc =
  let buf = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read tc.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes tc.partial buf 0 n;
      slurp ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  let data = Buffer.contents tc.partial in
  Buffer.clear tc.partial;
  let rec split start =
    match String.index_from_opt data start '\n' with
    | None ->
      Buffer.add_substring tc.partial data start (String.length data - start)
    | Some nl ->
      let line = String.sub data start (nl - start) in
      (match Protocol.response_of_line line with
      | Ok resp -> tc.frames <- tc.frames @ [ resp ]
      | Error msg -> Alcotest.fail ("unparsable server frame: " ^ msg));
      split (nl + 1)
  in
  split 0

let tconnect server path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let tc = { fd; partial = Buffer.create 256; session = ""; frames = [] } in
  (* every connection opens with the server's hello; consume it so the
     tests below see only the frames they provoked *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec hello () =
    Serve.step ~timeout:0.01 server;
    tread tc;
    match tc.frames with
    | Protocol.Hello { session; _ } :: rest ->
      tc.session <- session;
      tc.frames <- rest
    | [] when Unix.gettimeofday () < deadline -> hello ()
    | _ -> Alcotest.fail "expected a hello frame first"
  in
  hello ();
  tc

let wait_for ?(timeout = 60.0) ?(read = true) server tc pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if read then tread tc;
    if List.exists pred tc.frames then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Serve.step ~timeout:0.02 server;
      go ()
    end
  in
  go ()

let rows_of tc id =
  List.filter_map
    (function
      | Protocol.Row { id = rid; key = _; cached; cell } when rid = id ->
        Some (cached, cell)
      | _ -> None)
    tc.frames

let row_status cell =
  match Option.bind (Json.member "status" cell) Json.string_opt with
  | Some s -> s
  | None -> "?"

let counter server name =
  match
    Option.bind (Json.member "counters" (Serve.status_json server)) (fun c ->
        Option.bind (Json.member name c) Json.int_opt)
  with
  | Some n -> n
  | None -> Alcotest.fail ("status_json has no counter " ^ name)

let is_done id = function
  | Protocol.Job_done { id = rid; _ } -> rid = id
  | _ -> false

let is_cancelled id = function
  | Protocol.Cancelled { id = rid; _ } -> rid = id
  | _ -> false

let is_error = function Protocol.Error_msg _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Daemon behaviour                                                     *)
(* ------------------------------------------------------------------ *)

let quick_cells = [ spec ~iters:30 (); spec ~iters:40 () ]

let test_submit_streams_rows () =
  with_server ~jobs:2 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "j1" quick_cells);
      wait_for server tc (is_done "j1") "job j1 done";
      let rows = rows_of tc "j1" in
      Alcotest.(check int) "one row per cell" 2 (List.length rows);
      List.iter
        (fun (cached, cell) ->
          Alcotest.(check bool) "freshly simulated" false cached;
          Alcotest.(check string) "status ok" "ok" (row_status cell))
        rows;
      (match List.find_opt (is_done "j1") tc.frames with
      | Some (Protocol.Job_done { rows; failed; _ }) ->
        Alcotest.(check int) "done counts rows" 2 rows;
        Alcotest.(check int) "no failures" 0 failed
      | _ -> assert false);
      Alcotest.(check bool) "scheduler drained" true (Serve.idle server))

let test_identical_jobs_deduplicate () =
  with_server ~jobs:2 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "a" quick_cells);
      wait_for server tc (is_done "a") "job a done";
      Alcotest.(check int) "cold run simulated" 2 (counter server "simulated");
      tsend tc (submit "b" quick_cells);
      wait_for server tc (is_done "b") "job b done";
      let rows = rows_of tc "b" in
      Alcotest.(check int) "full row set again" 2 (List.length rows);
      List.iter
        (fun (cached, _) ->
          Alcotest.(check bool) "served without simulating" true cached)
        rows;
      Alcotest.(check int) "nothing new simulated" 2
        (counter server "simulated");
      Alcotest.(check bool)
        "dedup counter moved" true
        (counter server "deduplicated" >= 2))

let test_two_clients_share_results () =
  with_server ~jobs:1 (fun server path ->
      let a = tconnect server path in
      let b = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose a; tclose b) @@ fun () ->
      (* same cells submitted by both clients back to back: the second
         client's cells either coalesce onto the in-flight computation or
         hit the store — never a second simulation *)
      tsend a (submit "j" quick_cells);
      tsend b (submit "j" quick_cells);
      wait_for server a (is_done "j") "client a done";
      wait_for server b (is_done "j") "client b done";
      Alcotest.(check int) "each client got all rows (a)" 2
        (List.length (rows_of a "j"));
      Alcotest.(check int) "each client got all rows (b)" 2
        (List.length (rows_of b "j"));
      Alcotest.(check int) "one simulation per distinct cell" 2
        (counter server "simulated");
      Alcotest.(check bool)
        "b deduplicated" true
        (counter server "deduplicated" >= 2))

let test_window_bounds_inflight () =
  with_server ~jobs:4 ~window:1 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      let cells = List.map (fun i -> spec ~iters:(20 + i) ()) [ 0; 1; 2; 3 ] in
      tsend tc (submit "w" cells);
      (* the client reads nothing: the server may buffer rows, but must
         never have more than [window] of this client's cells in flight *)
      let max_seen = ref 0 in
      let deadline = Unix.gettimeofday () +. 60.0 in
      let rec pump () =
        Serve.step ~timeout:0.02 server;
        (match Json.member "per_client" (Serve.status_json server) with
        | Some (Json.List [ Json.Obj fields ]) -> (
          match List.assoc_opt "inflight" fields with
          | Some (Json.Int n) -> if n > !max_seen then max_seen := n
          | _ -> ())
        | _ -> ());
        tread tc;
        if not (List.exists (is_done "w") tc.frames) then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "timed out waiting for windowed job"
          else pump ()
      in
      pump ();
      Alcotest.(check int) "all rows still delivered" 4
        (List.length (rows_of tc "w"));
      Alcotest.(check bool)
        (Printf.sprintf "in-flight bounded by window (saw %d)" !max_seen)
        true (!max_seen <= 1))

let test_cancel_mid_run () =
  with_server ~jobs:1 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      let cells = List.map (fun i -> spec ~iters:(50 + i) ()) [ 0; 1; 2; 3 ] in
      tsend tc (submit "c" cells);
      wait_for server tc
        (function Protocol.Row { id = "c"; _ } -> true | _ -> false)
        "first row";
      tsend tc (Protocol.Cancel { id = "c" });
      wait_for server tc (is_cancelled "c") "cancellation confirmed";
      (match List.find_opt (is_cancelled "c") tc.frames with
      | Some (Protocol.Cancelled { dropped; _ }) ->
        Alcotest.(check bool)
          (Printf.sprintf "dropped some cells (%d)" dropped)
          true (dropped >= 1)
      | _ -> assert false);
      (* the pool drains to idle: queued work vanished, running workers
         completed — nothing was SIGKILLed mid-simulation *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      while (not (Serve.idle server)) && Unix.gettimeofday () < deadline do
        Serve.step ~timeout:0.02 server
      done;
      Alcotest.(check bool) "pool drained after cancel" true (Serve.idle server);
      Alcotest.(check bool)
        "cancellations counted" true
        (counter server "cancelled_cells" >= 1);
      (* resubmitting the same cells works, and previously-finished cells
         come back from the store *)
      tsend tc (submit "c2" cells);
      wait_for server tc (is_done "c2") "resubmission done";
      let rows = rows_of tc "c2" in
      Alcotest.(check int) "complete row set after cancel" 4
        (List.length rows);
      List.iter
        (fun (_, cell) ->
          Alcotest.(check string) "all ok" "ok" (row_status cell))
        rows;
      Alcotest.(check bool)
        "at least the finished cell was cached" true
        (List.exists (fun (cached, _) -> cached) rows))

let test_bad_jobs_rejected_atomically () =
  with_server (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      (* unknown bench: the whole job is rejected, nothing runs *)
      tsend tc
        (submit "bad" [ spec (); spec ~bench:"Nope" () ]);
      wait_for server tc is_error "rejection";
      (match List.find_opt is_error tc.frames with
      | Some (Protocol.Error_msg { id; message }) ->
        Alcotest.(check (option string)) "error names the job" (Some "bad") id;
        check_contains "error names the cell" message "Nope"
      | _ -> assert false);
      Alcotest.(check int) "nothing simulated" 0 (counter server "simulated");
      Alcotest.(check int) "rejection counted" 1
        (counter server "jobs_rejected");
      (* wrong schema over the wire *)
      tc.frames <- [];
      tsend_raw tc "{\"schema\":\"simbench-serve-json-0\",\"op\":\"status\"}";
      wait_for server tc is_error "schema rejection";
      (match tc.frames with
      | [ Protocol.Error_msg { message; _ } ] ->
        check_contains "unsupported schema" message "unsupported schema"
      | _ -> Alcotest.fail "expected one error frame");
      (* malformed JSON gets a position *)
      tc.frames <- [];
      tsend_raw tc "{\"schema\":";
      wait_for server tc is_error "parse rejection";
      match tc.frames with
      | [ Protocol.Error_msg { message; _ } ] ->
        check_contains "line/column" message "column"
      | _ -> Alcotest.fail "expected one error frame")

let test_shutdown_drains () =
  with_server ~jobs:1 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "s" quick_cells);
      wait_for server tc (is_done "s") "job done";
      Serve.begin_shutdown server ~reason:"test";
      Alcotest.(check bool) "shutting down" true (Serve.shutting_down server);
      (* new submissions are refused *)
      tsend tc (submit "late" quick_cells);
      wait_for server tc is_error "late submission refused";
      match List.find_opt is_error tc.frames with
      | Some (Protocol.Error_msg { message; _ }) ->
        check_contains "says why" message "shutting down"
      | _ -> assert false)

let test_persistent_cache_across_servers () =
  let cache = tmp_dir "sb_serve_cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  let first_simulated = ref (-1) in
  with_server ~jobs:1 ~cache_dir:cache (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "p" quick_cells);
      wait_for server tc (is_done "p") "first server done";
      first_simulated := counter server "simulated");
  Alcotest.(check int) "first server simulated both" 2 !first_simulated;
  (* a fresh server over the same cache dir answers from disk *)
  with_server ~jobs:1 ~cache_dir:cache (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "p2" quick_cells);
      wait_for server tc (is_done "p2") "second server done";
      Alcotest.(check int) "second server simulated nothing" 0
        (counter server "simulated");
      List.iter
        (fun (cached, _) ->
          Alcotest.(check bool) "rows marked cached" true cached)
        (rows_of tc "p2"))

(* One worker measures every cell of a job in turn, keeping its guest RAM
   and engine tables from one cell to the next: interp, dbt, virt, native
   and detailed on both ISAs, each engine twice.  Every row must count
   exactly what the same cell counts measured on its own in this
   process. *)
let test_warm_worker_counters () =
  let cells =
    List.concat_map
      (fun arch ->
        List.map
          (fun (engine, bench) -> spec ~bench ~engine ~arch ~iters:60 ())
          [
            ("interp", "Small Blocks");
            ("dbt", "Cold Memory Access");
            ("virt", "System Call");
            ("native", "TLB Flush");
            ("detailed", "Inter-Page Indirect");
            ("dbt", "Small Blocks");
            ("virt", "Data Access Fault");
            ("interp", "TLB Eviction");
            ("native", "Memory Mapped Device");
            ("detailed", "Hot Memory Access");
          ])
      [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]
  in
  let served =
    with_server ~jobs:1 (fun server path ->
        let tc = tconnect server path in
        Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
        tsend tc (submit "warm" cells);
        wait_for server tc (is_done "warm") "job warm done";
        let st = Serve.status_json server in
        Alcotest.(check (option int))
          "one worker ran them all" (Some 1)
          (Option.bind (Json.member "pool" st) (fun p ->
               Option.bind (Json.member "forked" p) Json.int_opt));
        List.filter_map
          (function
            | Protocol.Row { id = "warm"; key; cell; _ } -> Some (key, cell)
            | _ -> None)
          tc.frames)
  in
  Alcotest.(check int) "one row per cell" (List.length cells) (List.length served);
  List.iter
    (fun (sp : Protocol.cell_spec) ->
      let label = Protocol.spec_label sp in
      let row =
        match List.assoc_opt (Protocol.spec_key sp) served with
        | None -> Alcotest.fail (label ^ ": no row")
        | Some cell -> (
          match Protocol.row_of_json cell with
          | Ok r -> r
          | Error msg -> Alcotest.fail msg)
      in
      let cold =
        Sb_report.Experiments.measure ~label:sp.sp_engine ~arch:sp.sp_arch
          ~cell:sp.sp_bench ~repeats:1 ?iters:sp.sp_iters
          ~engine:
            (Result.get_ok (Simbench.Engines.of_string sp.sp_arch sp.sp_engine))
          (Result.get_ok (Sb_report.Experiments.target_of_name sp.sp_bench))
      in
      Alcotest.(check string) (label ^ " status") "ok" row.row_status;
      Alcotest.(check int) (label ^ " kernel_insns") cold.row_kernel_insns
        row.row_kernel_insns;
      Alcotest.(check (list (pair string int)))
        (label ^ " kernel_perf") cold.row_perf row.row_perf)
    cells

(* ------------------------------------------------------------------ *)
(* Protocol 2: sessions, heartbeats, resume                             *)
(* ------------------------------------------------------------------ *)

let test_hello_assigns_sessions () =
  with_server (fun server path ->
      let a = tconnect server path in
      let b = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose a; tclose b) @@ fun () ->
      Alcotest.(check bool) "session a non-empty" true (a.session <> "");
      Alcotest.(check bool) "session b non-empty" true (b.session <> "");
      Alcotest.(check bool) "sessions unique" true (a.session <> b.session))

let test_ping_pong () =
  with_server (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (Protocol.Ping { seq = 7 });
      wait_for server tc
        (function Protocol.Pong { seq } -> seq = 7 | _ -> false)
        "pong 7")

let test_heartbeat_drops_silent_client () =
  with_server ~heartbeat:0.05 ~miss_limit:2 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      Alcotest.(check int) "client connected" 1 (Serve.client_count server);
      (* send nothing: the server must drop us within the contract *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Serve.client_count server > 0 && Unix.gettimeofday () < deadline do
        Serve.step ~timeout:0.02 server
      done;
      Alcotest.(check int) "silent client dropped" 0
        (Serve.client_count server);
      Alcotest.(check int) "drop counted" 1 (counter server "clients_dropped");
      Alcotest.(check bool)
        "misses counted" true
        (counter server "heartbeats_missed" >= 2))

let test_activity_is_heartbeat () =
  (* a client busy pinging is never dropped, however long the job *)
  with_server ~heartbeat:0.08 ~miss_limit:2 (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      let stop = Unix.gettimeofday () +. 0.6 in
      let seq = ref 0 in
      while Unix.gettimeofday () < stop do
        incr seq;
        tsend tc (Protocol.Ping { seq = !seq });
        Serve.step ~timeout:0.02 server;
        tread tc
      done;
      Alcotest.(check int) "still connected" 1 (Serve.client_count server);
      Alcotest.(check int) "never dropped" 0 (counter server "clients_dropped"))

(* A frame that grows past 4 MiB without a newline gets one error frame
   and the connection is closed; the daemon goes on serving other
   clients. *)
let test_oversized_frame_dropped () =
  with_server (fun server path ->
      let tc = tconnect server path in
      let other = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc; tclose other) @@ fun () ->
      let cap = 4 * 1024 * 1024 in
      let chunk = Bytes.make 65536 'x' in
      let sent = ref 0 in
      let deadline = Unix.gettimeofday () +. 60.0 in
      while
        Serve.client_count server = 2
        && !sent <= 2 * cap
        && Unix.gettimeofday () < deadline
      do
        (match Unix.write tc.fd chunk 0 (Bytes.length chunk) with
        | n -> sent := !sent + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        Serve.step ~timeout:0.01 server
      done;
      Alcotest.(check int) "the sender is dropped" 1 (Serve.client_count server);
      Alcotest.(check bool) "not before the cap" true (!sent > cap);
      (* what the daemon sent before closing; bytes it never read may end
         the stream with a reset instead of an end of file *)
      let received = Buffer.create 256 in
      let buf = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read tc.fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes received buf 0 n;
          slurp ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if Unix.gettimeofday () < deadline then begin
            Serve.step ~timeout:0.01 server;
            slurp ()
          end
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
      in
      slurp ();
      let frames =
        List.filter_map
          (fun line ->
            if line = "" then None
            else
              match Protocol.response_of_line line with
              | Ok resp -> Some resp
              | Error msg -> Alcotest.fail ("unparsable server frame: " ^ msg))
          (String.split_on_char '\n' (Buffer.contents received))
      in
      (match frames with
      | [ Protocol.Error_msg { id = None; message } ] ->
        check_contains "error frame" message "frame longer than 4194304 bytes"
      | _ -> Alcotest.failf "expected one error frame, got %d frames" (List.length frames));
      tsend other (Protocol.Ping { seq = 1 });
      wait_for server other
        (function Protocol.Pong { seq } -> seq = 1 | _ -> false)
        "pong from the other client")

let test_resume_dedups_after_disconnect () =
  let cache = tmp_dir "sb_serve_resume" in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  with_server ~jobs:1 ~cache_dir:cache (fun server path ->
      let tc = tconnect server path in
      tsend tc (submit "r" quick_cells);
      wait_for server tc (is_done "r") "first pass done";
      Alcotest.(check int) "cold run simulated" 2 (counter server "simulated");
      (* the client vanishes mid-session and comes back, resuming the
         same job id: everything is served from the store, nothing is
         simulated again, and the reconnect is counted *)
      tclose tc;
      Serve.step ~timeout:0.02 server;
      let tc2 = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc2) @@ fun () ->
      tsend tc2 (submit ~resume:true "r" quick_cells);
      wait_for server tc2 (is_done "r") "resumed job done";
      let rows = rows_of tc2 "r" in
      Alcotest.(check int) "full row set on resume" 2 (List.length rows);
      List.iter
        (fun (cached, _) ->
          Alcotest.(check bool) "resume served from store" true cached)
        rows;
      Alcotest.(check int) "nothing re-simulated" 2
        (counter server "simulated");
      Alcotest.(check int) "reconnect counted" 1 (counter server "reconnects"))

let test_row_keys_match_spec_keys () =
  with_server (fun server path ->
      let tc = tconnect server path in
      Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
      tsend tc (submit "k" quick_cells);
      wait_for server tc (is_done "k") "job done";
      let expect =
        List.map
          (fun sp ->
            Protocol.spec_key
              {
                sp with
                Protocol.sp_engine =
                  Simbench.Engines.canonical_name sp.Protocol.sp_engine;
              })
          quick_cells
      in
      let got =
        List.filter_map
          (function
            | Protocol.Row { id = "k"; key; _ } -> Some key
            | _ -> None)
          tc.frames
      in
      Alcotest.(check (slist string compare))
        "row keys are the specs' content addresses" expect got)

(* ------------------------------------------------------------------ *)
(* Real daemons: signals, restarts, transport chaos                     *)
(* ------------------------------------------------------------------ *)

let fork_daemon ?(jobs = 1) ?cache_dir ~path () =
  match Unix.fork () with
  | 0 ->
    (try
       let cfg =
         {
           Serve.default_config with
           Serve.unix_path = Some path;
           jobs;
           cache_dir;
           heartbeat = 5.0;
         }
       in
       Serve.run (Serve.create cfg)
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let wait_path ?(timeout = 30.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  if not (Sys.file_exists path) then
    Alcotest.fail ("socket never appeared: " ^ path)

let connect_retry ?(timeout = 30.0) path =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Sb_serve.Client.connect ("unix:" ^ path) with
    | Ok c -> c
    | Error e ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail (Sb_serve.Client.error_message e)
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let test_sigint_drains_gracefully () =
  let dir = tmp_dir "sb_sigint" in
  let path = Filename.concat dir "d.sock" in
  let pid = fork_daemon ~jobs:1 ~path () in
  Fun.protect
    ~finally:(fun () ->
      reap pid;
      rm_rf dir)
  @@ fun () ->
  wait_path path;
  let conn = connect_retry path in
  Fun.protect ~finally:(fun () -> Sb_serve.Client.close conn) @@ fun () ->
  (* one worker runs the cells in order; the second is long (about half a
     second on interp), so it is still running when the SIGINT sent on the
     first row lands, and the third is still queued.  Three short cells
     could all finish before the signal arrives, leaving nothing to
     cancel. *)
  let cells =
    [ spec ~iters:60 (); spec ~iters:2_000_000 (); spec ~iters:62 () ]
  in
  let statuses = ref [] in
  let interrupted = ref false in
  let on_row ~key:_ ~cached:_ cell =
    statuses := row_status cell :: !statuses;
    if not !interrupted then begin
      (* SIGINT the daemon after the first row: queued cells must come
         back as cancelled rows, the running worker finishes, and the
         daemon still exits 0 with its socket unlinked *)
      interrupted := true;
      Unix.kill pid Sys.sigint
    end
  in
  (match Sb_serve.Client.submit ~on_row conn ~id:"sig" ~cells with
  | Ok (Sb_serve.Client.Completed { rows; failed }) ->
    Alcotest.(check int) "every cell answered" 3 (rows + failed);
    Alcotest.(check bool) "cancellations reported as failures" true (failed >= 1)
  | Ok _ -> Alcotest.fail "expected a completed job"
  | Error e -> Alcotest.fail (Sb_serve.Client.error_message e));
  Alcotest.(check bool)
    "queued cells came back cancelled" true
    (List.mem "cancelled" !statuses);
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> Alcotest.fail "daemon did not exit 0 after SIGINT");
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_resilient_survives_server_restart () =
  let dir = tmp_dir "sb_resil" in
  let path = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  let pid1 = fork_daemon ~path ~cache_dir:cache () in
  let pid2 = ref None in
  Fun.protect
    ~finally:(fun () ->
      reap pid1;
      Option.iter reap !pid2;
      rm_rf cache;
      rm_rf dir)
  @@ fun () ->
  wait_path path;
  let cells = [ spec ~iters:33 (); spec ~iters:44 (); spec ~iters:55 () ] in
  let seen = Hashtbl.create 8 in
  let restarted = ref false in
  let on_row ~key ~cached:_ ~retried:_ _cell =
    Hashtbl.replace seen key
      (1 + try Hashtbl.find seen key with Not_found -> 0);
    if not !restarted then begin
      (* SIGKILL the daemon after the first row — no graceful anything —
         then start a fresh one on the same socket and store.  The
         resilient client must reconnect and finish; the already-done
         cell must come from the persistent store *)
      restarted := true;
      (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid1) with Unix.Unix_error _ -> ());
      pid2 := Some (fork_daemon ~path ~cache_dir:cache ())
    end
  in
  let cfg =
    {
      Sb_serve.Resilient.default_config with
      Sb_serve.Resilient.retries = 10;
      backoff = 0.05;
      seed = 11;
    }
  in
  match
    Sb_serve.Resilient.submit ~cfg ~on_row ~addr:("unix:" ^ path) ~id:"resil"
      ~cells ()
  with
  | Error e -> Alcotest.fail (Sb_serve.Client.error_message e)
  | Ok { Sb_serve.Resilient.ended; stats } ->
    (match ended with
    | Sb_serve.Client.Completed { rows; failed } ->
      Alcotest.(check int) "whole job's rows" 3 rows;
      Alcotest.(check int) "none failed" 0 failed
    | _ -> Alcotest.fail "expected a completed job");
    Alcotest.(check bool)
      "reconnected at least once" true
      (stats.Sb_serve.Resilient.st_reconnects >= 1);
    Alcotest.(check int) "no duplicates surfaced" 0
      stats.Sb_serve.Resilient.st_duplicates;
    Alcotest.(check int) "every key exactly once" 3 (Hashtbl.length seen);
    Hashtbl.iter
      (fun _ n -> Alcotest.(check int) "delivered once" 1 n)
      seen

let test_chaos_proxy_recovery () =
  let dir = tmp_dir "sb_chaos" in
  let spath = Filename.concat dir "srv.sock" in
  let ppath = Filename.concat dir "proxy.sock" in
  let cache = Filename.concat dir "cache" in
  let dpid = fork_daemon ~path:spath ~cache_dir:cache () in
  let ppid = ref None in
  Fun.protect
    ~finally:(fun () ->
      reap dpid;
      Option.iter reap !ppid;
      rm_rf cache;
      rm_rf dir)
  @@ fun () ->
  wait_path spath;
  ppid :=
    Some
      (match Unix.fork () with
      | 0 ->
        (try
           let cfg =
             {
               Sb_serve.Chaosproxy.default_config with
               Sb_serve.Chaosproxy.listen = "unix:" ^ ppath;
               upstream = "unix:" ^ spath;
               seed = 3;
               reset_after = (900, 1800);
               chunk = 64;
             }
           in
           Sb_serve.Chaosproxy.run (Sb_serve.Chaosproxy.create cfg)
         with _ -> ());
        Unix._exit 0
      | pid -> pid);
  wait_path ppath;
  let cells = List.map (fun i -> spec ~iters:(30 + i) ()) [ 0; 1; 2; 3 ] in
  let seen = Hashtbl.create 8 in
  let on_row ~key ~cached:_ ~retried:_ _cell =
    Hashtbl.replace seen key
      (1 + try Hashtbl.find seen key with Not_found -> 0)
  in
  let cfg =
    {
      Sb_serve.Resilient.default_config with
      Sb_serve.Resilient.retries = 15;
      backoff = 0.02;
      seed = 5;
    }
  in
  match
    Sb_serve.Resilient.submit ~cfg ~on_row ~addr:("unix:" ^ ppath) ~id:"chaos"
      ~cells ()
  with
  | Error e -> Alcotest.fail (Sb_serve.Client.error_message e)
  | Ok { Sb_serve.Resilient.ended; stats } ->
    (match ended with
    | Sb_serve.Client.Completed { rows; failed } ->
      Alcotest.(check int) "complete row set through chaos" 4 rows;
      Alcotest.(check int) "none failed" 0 failed
    | _ -> Alcotest.fail "expected a completed job");
    Alcotest.(check int) "no duplicates surfaced" 0
      stats.Sb_serve.Resilient.st_duplicates;
    Alcotest.(check int) "every key exactly once" 4 (Hashtbl.length seen);
    Hashtbl.iter
      (fun _ n -> Alcotest.(check int) "delivered once" 1 n)
      seen;
    (* with resets every <= 1800 bytes per direction, a multi-row job
       cannot have sailed through untouched *)
    Alcotest.(check bool)
      "the proxy actually hurt us" true
      (stats.Sb_serve.Resilient.st_reconnects >= 1)

(* One cell on every path: one suite bench on dbt@v2.0.0 at the quick
   report scale, run the way [simbench run] does, through the report
   path, through the daemon, and through the report path fast-forwarded
   from a checkpoint.  All four retire the same kernel instructions, the
   three cold paths count the same kernel events, and the daemon's row
   frame is the report row's cell object. *)
let test_one_cell_every_path () =
  let arch = Sb_isa.Arch_sig.Sba in
  let bench = Simbench.Suite.small_blocks in
  let name = bench.Simbench.Bench.name in
  let engine_name = "dbt@v2.0.0" in
  let config = Sb_report.Experiments.quick_config in
  let dbt = Option.get (Sb_dbt.Version.find "v2.0.0") in
  let report ?opts config =
    List.find
      (fun r -> r.Sb_report.Experiments.row_cell = name)
      (List.concat
         (Sb_report.Experiments.columns ?opts ~config
            [
              Sb_report.Experiments.version_column ~arch
                Sb_report.Experiments.suite_cells dbt;
            ]))
  in
  let reported = report config in
  let iters = reported.Sb_report.Experiments.row_iters in
  let direct =
    Simbench.Harness.run ~iters
      ~support:(Simbench.Engines.support arch)
      ~engine:(Result.get_ok (Simbench.Engines.of_string arch engine_name))
      bench
  in
  let direct_perf =
    match direct.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf with
    | None -> []
    | Some p ->
      List.map
        (fun (c, n) -> (Sb_sim.Perf.to_string c, n))
        (Sb_sim.Perf.to_alist p)
  in
  let frame_cell =
    with_server (fun server path ->
        let tc = tconnect server path in
        Fun.protect ~finally:(fun () -> tclose tc) @@ fun () ->
        tsend tc (submit "one" [ spec ~bench:name ~engine:engine_name ~iters () ]);
        wait_for server tc (is_done "one") "job one done";
        match rows_of tc "one" with
        | [ (_, cell) ] -> cell
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))
  in
  let served =
    match Protocol.row_of_json frame_cell with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let ckpt_dir = tmp_dir "sb_one_cell" in
  let warm =
    Fun.protect
      ~finally:(fun () -> rm_rf ckpt_dir)
      (fun () ->
        report
          ~opts:
            {
              Sb_report.Experiments.sequential with
              Sb_report.Experiments.cache_dir = Some ckpt_dir;
            }
          {
            config with
            Sb_report.Experiments.switch_at =
              Some Simbench.Checkpoint.Kernel_phase;
          })
  in
  let insns = direct.Simbench.Harness.kernel_insns in
  Alcotest.(check bool) "the kernel ran" true (insns > 0);
  List.iter
    (fun (path, (r : Sb_report.Experiments.row)) ->
      Alcotest.(check string) (path ^ " status") "ok" r.row_status;
      Alcotest.(check int) (path ^ " iters") iters r.row_iters;
      Alcotest.(check int) (path ^ " kernel_insns") insns r.row_kernel_insns)
    [ ("report", reported); ("serve", served); ("report --switch-at", warm) ];
  let perf = Alcotest.(list (pair string int)) in
  Alcotest.check perf "report kernel_perf" direct_perf
    reported.Sb_report.Experiments.row_perf;
  Alcotest.check perf "serve kernel_perf" direct_perf
    served.Sb_report.Experiments.row_perf;
  let keys = function
    | Json.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "cell is not an object"
  in
  Alcotest.(check (list string))
    "frame cell keys = report row keys"
    (keys (Sb_report.Experiments.row_to_json reported))
    (keys frame_cell)

let () =
  Random.self_init ();
  Alcotest.run "sb_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "spec round trip" `Quick test_spec_round_trip;
          Alcotest.test_case "spec key canonical" `Quick test_spec_key_canonical;
          Alcotest.test_case "row round trip" `Quick test_row_round_trip;
          Alcotest.test_case "decode errors name their object" `Quick
            test_decode_errors_name_object;
          Alcotest.test_case "request round trip" `Quick test_request_round_trip;
          Alcotest.test_case "response round trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "malformed frame position" `Quick
            test_malformed_frame_has_position;
          Alcotest.test_case "schema version rejected" `Quick
            test_schema_version_rejected;
          Alcotest.test_case "v1 migration error" `Quick
            test_v1_schema_migration_error;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit streams rows" `Quick
            test_submit_streams_rows;
          Alcotest.test_case "identical jobs deduplicate" `Quick
            test_identical_jobs_deduplicate;
          Alcotest.test_case "two clients share results" `Quick
            test_two_clients_share_results;
          Alcotest.test_case "window bounds in-flight" `Quick
            test_window_bounds_inflight;
          Alcotest.test_case "cancel mid-run" `Quick test_cancel_mid_run;
          Alcotest.test_case "bad jobs rejected" `Quick
            test_bad_jobs_rejected_atomically;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "persistent cache across servers" `Quick
            test_persistent_cache_across_servers;
          Alcotest.test_case "warm worker counters" `Quick
            test_warm_worker_counters;
          Alcotest.test_case "one cell on every path" `Quick
            test_one_cell_every_path;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "hello assigns sessions" `Quick
            test_hello_assigns_sessions;
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "heartbeat drops silent client" `Quick
            test_heartbeat_drops_silent_client;
          Alcotest.test_case "activity is heartbeat" `Quick
            test_activity_is_heartbeat;
          Alcotest.test_case "oversized frame dropped" `Quick
            test_oversized_frame_dropped;
          Alcotest.test_case "resume dedups after disconnect" `Quick
            test_resume_dedups_after_disconnect;
          Alcotest.test_case "row keys match spec keys" `Quick
            test_row_keys_match_spec_keys;
          Alcotest.test_case "sigint drains gracefully" `Quick
            test_sigint_drains_gracefully;
          Alcotest.test_case "resilient survives server restart" `Quick
            test_resilient_survives_server_restart;
          Alcotest.test_case "chaos proxy recovery" `Quick
            test_chaos_proxy_recovery;
        ] );
    ]
