(* Tests for statistical regression detection (Sb_regress): the JSON
   parser round-trip with position-carrying errors, CI-overlap
   classification on synthetic repeat vectors, run pairing (engine remap,
   iteration-count mismatches), category attribution, compare exit codes,
   and clean rejection of old-schema files (JSON and jobs cache). *)

module Json = Sb_util.Json
module Stats = Sb_util.Stats
module Regress = Sb_regress.Regress
module Baseline = Sb_regress.Baseline
module Cache = Sb_jobs.Cache

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

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Json parsing                                                         *)
(* ------------------------------------------------------------------ *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool a, Json.Bool b -> a = b
  | Json.Int a, Json.Int b -> a = b
  | Json.Float a, Json.Float b -> a = b
  | Json.String a, Json.String b -> a = b
  | Json.List a, Json.List b ->
    List.length a = List.length b && List.for_all2 json_equal a b
  | Json.Obj a, Json.Obj b ->
    List.length a = List.length b
    && List.for_all2
         (fun (ka, va) (kb, vb) -> ka = kb && json_equal va vb)
         a b
  | _ -> false

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int 1_000_000 ]);
        ("floats", Json.List [ Json.Float 1.5; Json.Float (-3.25e-9) ]);
        ("escapes", Json.String "a\"b\\c\nd\te\r<\001>");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (json_equal v v')
  | Error msg -> Alcotest.fail msg

let test_json_values () =
  let ok s = match Json.of_string s with Ok v -> v | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "int" true (json_equal (Json.Int 42) (ok " 42 "));
  Alcotest.(check bool) "negative float" true
    (json_equal (Json.Float (-0.5)) (ok "-0.5"));
  Alcotest.(check bool) "exponent is a float" true
    (json_equal (Json.Float 1000.) (ok "1e3"));
  Alcotest.(check bool) "unicode escape" true
    (json_equal (Json.String "A") (ok "\"\\u0041\""));
  (* surrogate pair: U+1F600 as 4 UTF-8 bytes *)
  Alcotest.(check bool) "surrogate pair" true
    (json_equal (Json.String "\xf0\x9f\x98\x80") (ok "\"\\ud83d\\ude00\""));
  Alcotest.(check bool) "null maps to nan via float accessor" true
    (match Json.float_opt (ok "null") with Some f -> Float.is_nan f | None -> false)

let test_json_error_positions () =
  let err s =
    match Json.of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | Error msg -> msg
  in
  Alcotest.(check bool) "missing value column" true
    (contains (err "{\"a\": }") "line 1, column 7");
  let multi = err "[1,\n2,\nx]" in
  Alcotest.(check bool) "error on line 3" true (contains multi "line 3, column 1");
  Alcotest.(check bool) "trailing garbage" true
    (contains (err "1 x") "trailing garbage");
  Alcotest.(check bool) "unterminated string" true
    (contains (err "\"abc") "unterminated string");
  Alcotest.(check bool) "bad literal" true (contains (err "[tru]") "expected \"true\"");
  Alcotest.(check bool) "unpaired surrogate" true
    (contains (err "\"\\ud800\"") "surrogate")

(* ------------------------------------------------------------------ *)
(* Classification                                                       *)
(* ------------------------------------------------------------------ *)

let cell ?(experiment = "figX") ?(engine = "dbt:v1.7.0") ?(arch = "sba")
    ?(iters = 1000) ?(insns = 5_000) ?(status = "ok") ~name samples =
  {
    Regress.experiment;
    row =
      {
        Sb_report.Experiments.row_cell = name;
        row_engine = engine;
        row_arch = arch;
        row_iters = iters;
        row_repeats = List.length samples;
        row_seconds = Stats.min_of_repeats samples;
        row_mean_seconds = Stats.mean samples;
        row_samples = samples;
        row_kernel_insns = insns;
        row_perf = [];
        row_status = status;
        row_note = "";
      };
  }

(* a cell with its row edited *)
let edit_row f (c : Regress.cell) = { c with Regress.row = f c.Regress.row }

let classify olds news =
  Regress.classify ~threshold:0.05
    ~old_cell:(cell ~name:"Small Blocks" olds)
    ~new_cell:(cell ~name:"Small Blocks" news)

let test_classify_regression () =
  let c = classify [ 1.0; 1.01; 0.99 ] [ 1.30; 1.31; 1.29 ] in
  Alcotest.(check bool) "regressed" true (c.Regress.c_verdict = Regress.Regressed);
  Alcotest.(check bool) "confirmed" true (c.Regress.c_note = Regress.Confirmed);
  Alcotest.(check bool) "delta ~30%" true
    (c.Regress.c_delta > 0.25 && c.Regress.c_delta < 0.35)

let test_classify_improvement () =
  let c = classify [ 1.0; 1.01; 0.99 ] [ 0.70; 0.71; 0.69 ] in
  Alcotest.(check bool) "improved" true (c.Regress.c_verdict = Regress.Improved);
  Alcotest.(check bool) "confirmed" true (c.Regress.c_note = Regress.Confirmed)

let test_classify_null_below_threshold () =
  (* jitter-only: 1-2% shifts stay unchanged whatever the intervals say *)
  let c = classify [ 1.0; 1.02 ] [ 1.01; 1.03 ] in
  Alcotest.(check bool) "unchanged" true (c.Regress.c_verdict = Regress.Unchanged);
  Alcotest.(check bool) "below threshold" true
    (c.Regress.c_note = Regress.Below_threshold)

let test_classify_null_within_noise () =
  (* a 20% shift of the minima, but the repeats are so noisy that the 95%
     intervals overlap: must NOT be confirmed *)
  let c = classify [ 1.0; 1.4 ] [ 1.2; 1.6 ] in
  Alcotest.(check bool) "unchanged" true (c.Regress.c_verdict = Regress.Unchanged);
  Alcotest.(check bool) "within noise" true (c.Regress.c_note = Regress.Within_noise)

let test_classify_single_sample () =
  (* one repeat per side: point intervals, so the threshold decides *)
  let c = classify [ 1.0 ] [ 1.2 ] in
  Alcotest.(check bool) "regressed" true (c.Regress.c_verdict = Regress.Regressed);
  let c = classify [ 1.0 ] [ 1.03 ] in
  Alcotest.(check bool) "3% stays unchanged" true
    (c.Regress.c_verdict = Regress.Unchanged)

let test_ci_helpers () =
  let lo, hi = Stats.ci95 [ 1.0; 1.1; 0.9; 1.05; 0.95 ] in
  Alcotest.(check bool) "interval brackets the mean" true (lo < 1.0 && hi > 1.0);
  Alcotest.(check bool) "point interval" true (Stats.ci95 [ 2.0 ] = (2.0, 2.0));
  Alcotest.(check bool) "overlap" true (Stats.intervals_overlap (0., 1.) (0.5, 2.));
  Alcotest.(check bool) "disjoint" false (Stats.intervals_overlap (0., 1.) (1.5, 2.));
  Alcotest.(check bool) "nan overlaps" true
    (Stats.intervals_overlap (nan, nan) (1.5, 2.))

(* ------------------------------------------------------------------ *)
(* Pairing and attribution                                              *)
(* ------------------------------------------------------------------ *)

let run ~source cells = { Regress.source; cells }

let test_compare_runs_pairing () =
  let old_run =
    run ~source:"old"
      [
        cell ~name:"Small Blocks" [ 1.0; 1.01 ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
        cell ~name:"Removed Cell" [ 0.2 ];
        cell ~name:"Mismatched" ~iters:100 [ 0.3 ];
      ]
  in
  let new_run =
    run ~source:"new"
      [
        cell ~name:"Small Blocks" [ 1.5; 1.51 ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
        cell ~name:"Added Cell" [ 0.1 ];
        cell ~name:"Mismatched" ~iters:200 [ 0.3 ];
      ]
  in
  let report = Regress.compare_runs ~old_run ~new_run () in
  Alcotest.(check int) "two comparable pairs" 2 (List.length report.Regress.r_pairs);
  Alcotest.(check int) "one only-old" 1 (List.length report.Regress.r_only_old);
  Alcotest.(check int) "one only-new" 1 (List.length report.Regress.r_only_new);
  Alcotest.(check int) "one iters mismatch" 1 (List.length report.Regress.r_mismatched);
  Alcotest.(check int) "one regression" 1 (List.length (Regress.regressions report));
  Alcotest.(check bool) "no engine remap" true (report.Regress.r_engine_remap = None)

let test_compare_runs_engine_remap () =
  (* same cells under two different single engine labels: the v1.7.0 vs
     v2.5.0-rc2 scenario — paired across the rename, and said so *)
  let old_run =
    run ~source:"old" [ cell ~engine:"dbt:v1.7.0" ~name:"mcf" [ 1.0; 1.01 ] ]
  in
  let new_run =
    run ~source:"new" [ cell ~engine:"dbt:v2.5.0-rc2" ~name:"mcf" [ 1.8; 1.81 ] ]
  in
  let report = Regress.compare_runs ~old_run ~new_run () in
  Alcotest.(check int) "paired across engines" 1 (List.length report.Regress.r_pairs);
  Alcotest.(check bool) "remap recorded" true
    (report.Regress.r_engine_remap = Some ("dbt:v1.7.0", "dbt:v2.5.0-rc2"));
  Alcotest.(check int) "regression found" 1 (List.length (Regress.regressions report))

let test_duplicate_cells_deduped () =
  (* the same memoized sweep cell recorded by two experiments must pair once *)
  let dup name =
    [
      cell ~experiment:"fig2" ~name [ 1.0; 1.01 ];
      cell ~experiment:"fig8" ~name [ 1.0; 1.01 ];
    ]
  in
  let report =
    Regress.compare_runs
      ~old_run:(run ~source:"old" (dup "sjeng"))
      ~new_run:(run ~source:"new" (dup "sjeng"))
      ()
  in
  Alcotest.(check int) "one pair" 1 (List.length report.Regress.r_pairs)

let test_category_attribution () =
  Alcotest.(check string) "suite bench" "Code Generation"
    (Regress.category_of_cell "Small Blocks");
  Alcotest.(check string) "exception bench" "Exception Handling"
    (Regress.category_of_cell "System Call");
  Alcotest.(check string) "workload" "Application" (Regress.category_of_cell "mcf");
  Alcotest.(check string) "names ignore case" "Application"
    (Regress.category_of_cell "MCF");
  Alcotest.(check string) "extension bench" "Exception Handling"
    (Regress.category_of_cell "nested exception");
  Alcotest.(check string) "unknown" "Other" (Regress.category_of_cell "nonesuch");
  let old_run =
    run ~source:"old"
      [
        cell ~name:"Small Blocks" [ 1.0; 1.01 ];
        cell ~name:"Large Blocks" [ 1.0; 1.01 ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
      ]
  in
  let new_run =
    run ~source:"new"
      [
        cell ~name:"Small Blocks" [ 1.4; 1.41 ];
        cell ~name:"Large Blocks" [ 1.3; 1.31 ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
      ]
  in
  let report = Regress.compare_runs ~old_run ~new_run () in
  let cats = Regress.attribution report in
  let find name = List.find (fun s -> s.Regress.cat_name = name) cats in
  let cg = find "Code Generation" in
  Alcotest.(check int) "both code-gen cells regressed" 2 cg.Regress.cat_regressed;
  Alcotest.(check bool) "geomean ratio up" true (cg.Regress.cat_geomean_ratio > 1.2);
  let eh = find "Exception Handling" in
  Alcotest.(check int) "exceptions unchanged" 0 eh.Regress.cat_regressed;
  let rendered = Regress.render report in
  Alcotest.(check bool) "render flags regression" true (contains rendered "REGRESSED");
  Alcotest.(check bool) "render attributes code-gen" true
    (contains rendered "Code Generation regressed");
  Alcotest.(check bool) "render names the mechanism" true
    (contains rendered "translation / code-generation")

let test_failed_cells_skipped_with_note () =
  (* a cell whose harness status records a failure must be skipped with a
     note, never classified — a timeout's nan seconds would otherwise
     read as a regression (or worse, an improvement) *)
  let old_run =
    run ~source:"old"
      [
        cell ~name:"Small Blocks" [ 1.0; 1.01 ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
      ]
  in
  let new_run =
    run ~source:"new"
      [
        cell ~name:"Small Blocks" ~status:"timeout" [ nan ];
        cell ~name:"System Call" [ 0.5; 0.51 ];
      ]
  in
  let report = Regress.compare_runs ~old_run ~new_run () in
  Alcotest.(check int) "one comparable pair" 1 (List.length report.Regress.r_pairs);
  Alcotest.(check int) "one status skip" 1
    (List.length report.Regress.r_skipped_status);
  Alcotest.(check int) "no regressions invented" 0
    (List.length (Regress.regressions report));
  let rendered = Regress.render report in
  Alcotest.(check bool) "render lists the skipped cell" true
    (contains rendered "Small Blocks");
  Alcotest.(check bool) "render names the status" true
    (contains rendered "timeout");
  Alcotest.(check bool) "summary counts the skip" true
    (contains rendered "skipped (failed/timeout cells)");
  (* retried cells carry a good value: compared normally *)
  let report =
    Regress.compare_runs
      ~old_run:(run ~source:"o" [ cell ~name:"mcf" [ 1.0; 1.01 ] ])
      ~new_run:(run ~source:"n" [ cell ~name:"mcf" ~status:"retried 1" [ 1.0; 1.02 ] ])
      ()
  in
  Alcotest.(check int) "retried still compared" 1 (List.length report.Regress.r_pairs);
  Alcotest.(check int) "no skip for retried" 0
    (List.length report.Regress.r_skipped_status)

let test_degenerate_samples_skipped () =
  (* one (or zero) repeats per side: no noise estimate exists, so the
     pair is reported skipped instead of pretending a verdict *)
  let report =
    Regress.compare_runs
      ~old_run:(run ~source:"o" [ cell ~name:"Small Blocks" [ 1.0 ] ])
      ~new_run:(run ~source:"n" [ cell ~name:"Small Blocks" [ 1.3 ] ])
      ()
  in
  Alcotest.(check int) "no pairs classified" 0 (List.length report.Regress.r_pairs);
  Alcotest.(check int) "skipped for samples" 1
    (List.length report.Regress.r_skipped_samples);
  Alcotest.(check int) "no regression from a point interval" 0
    (List.length (Regress.regressions report));
  let rendered = Regress.render report in
  Alcotest.(check bool) "summary names insufficient samples" true
    (contains rendered "insufficient samples");
  (* zero-sample cells too (an ok cell with an empty vector): still
     skipped, not a crash *)
  let report =
    Regress.compare_runs
      ~old_run:(run ~source:"o" [ cell ~name:"mcf" [] ])
      ~new_run:(run ~source:"n" [ cell ~name:"mcf" [ 1.0; 1.1 ] ])
      ()
  in
  Alcotest.(check int) "empty vector skipped" 1
    (List.length report.Regress.r_skipped_samples);
  (* and the JSON report carries the counts *)
  let j = Regress.to_json report in
  match Json.member "skipped_samples" j with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "skipped_samples missing from JSON report"

let test_filter_engine_canonical () =
  let r =
    run ~source:"sweep"
      [
        cell ~name:"mcf" ~engine:"dbt:v2.5.0-rc0" [ 1.0 ];
        cell ~name:"mcf" ~engine:"dbt:v2.0.0" [ 1.0 ];
        cell ~name:"mcf" ~engine:"interp" [ 1.0 ];
      ]
  in
  let engines label =
    List.map
      (fun (c : Regress.cell) -> c.row.row_engine)
      (Baseline.filter_engine r label).Regress.cells
  in
  (* recorded rows carry the first-listed release of each configuration *)
  Alcotest.(check (list string)) "rc2 is rc0" [ "dbt:v2.5.0-rc0" ]
    (engines "dbt:v2.5.0-rc2");
  Alcotest.(check (list string)) "v2.0.2 is v2.0.0" [ "dbt:v2.0.0" ]
    (engines "dbt:v2.0.2");
  Alcotest.(check (list string)) "canonical name kept" [ "dbt:v2.0.0" ]
    (engines "dbt:v2.0.0");
  Alcotest.(check (list string)) "other labels exact" [ "interp" ]
    (engines "interp");
  Alcotest.(check (list string)) "unknown release matches nothing" []
    (engines "dbt:v9.9.9")

let test_exit_codes () =
  let regressing =
    Regress.compare_runs
      ~old_run:(run ~source:"o" [ cell ~name:"Small Blocks" [ 1.0; 1.01 ] ])
      ~new_run:(run ~source:"n" [ cell ~name:"Small Blocks" [ 1.5; 1.51 ] ])
      ()
  in
  let clean =
    Regress.compare_runs
      ~old_run:(run ~source:"o" [ cell ~name:"Small Blocks" [ 1.0; 1.01 ] ])
      ~new_run:(run ~source:"n" [ cell ~name:"Small Blocks" [ 1.0; 1.02 ] ])
      ()
  in
  Alcotest.(check int) "strict + regression = 1" 1
    (Regress.exit_code ~strict:true regressing);
  Alcotest.(check int) "non-strict + regression = 0" 0
    (Regress.exit_code ~strict:false regressing);
  Alcotest.(check int) "strict + clean = 0" 0 (Regress.exit_code ~strict:true clean);
  Alcotest.(check int) "non-strict + clean = 0" 0
    (Regress.exit_code ~strict:false clean)

(* [compare --counters] ignores timing and exits 1 on any counter edit,
   on a cell present on one side only, or on a failed cell. *)
let test_counter_gate () =
  let with_perf =
    edit_row (fun r -> { r with row_perf = [ ("Insns", 5_000); ("Mmu_walks", 12) ] })
  in
  let base =
    [
      with_perf (cell ~name:"Small Blocks" [ 0.1 ]);
      with_perf (cell ~name:"System Call" ~arch:"vlx" [ 0.2 ]);
    ]
  in
  let gate news =
    Regress.compare_counters ~old_run:(run ~source:"o" base)
      ~new_run:(run ~source:"n" news) ()
  in
  let check label expect news =
    Alcotest.(check int) label expect (Regress.counters_exit_code (gate news))
  in
  let edit_first f = match base with c :: rest -> f c :: rest | [] -> [] in
  check "identical" 0 base;
  check "only timing differs" 0
    (List.map
       (edit_row (fun r -> { r with row_samples = [ 9.0 ]; row_seconds = 9.0 }))
       base);
  let one_counter =
    edit_first
      (edit_row (fun r -> { r with row_perf = [ ("Insns", 5_000); ("Mmu_walks", 11) ] }))
  in
  check "one counter edited" 1 one_counter;
  Alcotest.(check bool) "the edit is named" true
    (contains (Regress.render_counters (gate one_counter)) "Mmu_walks 12 -> 11");
  check "a counter only on one side" 1
    (edit_first (edit_row (fun r -> { r with row_perf = ("Spills", 1) :: r.row_perf })));
  check "kernel_insns edited" 1
    (edit_first (edit_row (fun r -> { r with row_kernel_insns = 5_001 })));
  check "cell missing" 1 (List.tl base);
  check "extra cell" 1 (base @ [ with_perf (cell ~name:"TLB Flush" [ 0.3 ]) ]);
  check "failed cell" 1
    (edit_first (edit_row (fun r -> { r with row_status = "failed" })))

(* ------------------------------------------------------------------ *)
(* Serialization and schema migration                                   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_round_trip () =
  let dir = tmp_dir "sb_regress_snap" in
  let cells =
    [
      cell ~name:"Small Blocks" ~insns:1234 [ 1.0; 1.25 ];
      cell ~name:"System Call" ~arch:"vlx" [ 0.5 ];
    ]
  in
  let out = Filename.concat dir "baseline.json" in
  Baseline.write_snapshot ~out (run ~source:"unit-test" cells);
  (match Baseline.load out with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
    Alcotest.(check int) "cell count" 2 (List.length loaded.Regress.cells);
    List.iter2
      (fun ({ row = a; _ } : Regress.cell) ({ row = b; _ } : Regress.cell) ->
        Alcotest.(check string) "cell" a.row_cell b.row_cell;
        Alcotest.(check string) "engine" a.row_engine b.row_engine;
        Alcotest.(check string) "arch" a.row_arch b.row_arch;
        Alcotest.(check int) "iters" a.row_iters b.row_iters;
        Alcotest.(check int) "insns" a.row_kernel_insns b.row_kernel_insns;
        Alcotest.(check (list (float 1e-9))) "samples" a.row_samples
          b.row_samples)
      cells loaded.Regress.cells);
  rm_rf dir

(* the report's bench file: top-level keys in the documented order, and
   every cell read back under the file's experiment *)
let test_bench_file_round_trip () =
  let dir = tmp_dir "sb_regress_bench" in
  let without_experiment c =
    match Baseline.json_of_cell c with
    | Json.Obj fs -> Json.Obj (List.remove_assoc "experiment" fs)
    | j -> j
  in
  let cells =
    [
      cell ~name:"Small Blocks" ~engine:"abl-x:a" ~insns:1234 [ 1.0; 1.25 ];
      cell ~name:"Small Blocks" ~engine:"abl-x:b" [ 0.5 ];
    ]
  in
  let config =
    { Sb_report.Experiments.quick_config with repeats = 2 }
  in
  let opts = { Sb_report.Experiments.sequential with jobs = 3 } in
  let out = Filename.concat dir "BENCH_abl-x.json" in
  Baseline.write_json ~out
    (Baseline.bench_json ~run:(opts, config) ~experiment:"abl-x"
       (List.map without_experiment cells));
  let keys = function Json.Obj fs -> List.map fst fs | _ -> [] in
  (match Json.of_string (In_channel.with_open_bin out In_channel.input_all) with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
    Alcotest.(check (list string)) "top-level keys"
      [ "schema"; "experiment"; "jobs"; "config"; "cells" ]
      (keys j);
    Alcotest.(check (list string)) "config keys"
      [ "scale"; "workload_iters"; "repeats"; "switch_at" ]
      (keys (Option.get (Json.member "config" j)));
    Alcotest.(check (option int)) "jobs" (Some 3)
      (Option.bind (Json.member "jobs" j) Json.int_opt));
  (match Baseline.load_bench_file out with
  | Error msg -> Alcotest.fail msg
  | Ok loaded ->
    Alcotest.(check (list string)) "experiment from the file" [ "abl-x"; "abl-x" ]
      (List.map (fun (c : Regress.cell) -> c.Regress.experiment) loaded);
    Alcotest.(check (list string)) "engines" [ "abl-x:a"; "abl-x:b" ]
      (List.map (fun (c : Regress.cell) -> c.row.row_engine) loaded);
    Alcotest.(check (list int)) "insns" [ 1234; 5_000 ]
      (List.map (fun (c : Regress.cell) -> c.row.row_kernel_insns) loaded));
  (* without recording settings (the serve client) there is no jobs or
     config *)
  Alcotest.(check (list string)) "serve keys"
    [ "schema"; "experiment"; "cells" ]
    (keys (Baseline.bench_json ~experiment:"serve" []));
  rm_rf dir

let test_old_schema_rejected () =
  let dir = tmp_dir "sb_regress_schema" in
  (* a pre-samples bench file: no "schema" field at all *)
  let old_file = Filename.concat dir "BENCH_fig7.json" in
  write_file old_file
    "{\"experiment\":\"fig7\",\"jobs\":1,\"cells\":[{\"cell\":\"Small \
     Blocks\",\"engine\":\"dbt\",\"arch\":\"sba\",\"iters\":10,\"repeats\":1,\"seconds\":0.1,\"mean_seconds\":0.1,\"kernel_insns\":5}]}";
  (match Baseline.load_bench_file old_file with
  | Ok _ -> Alcotest.fail "old-schema file must be rejected"
  | Error msg ->
    Alcotest.(check bool) "message names the file" true (contains msg "BENCH_fig7.json");
    Alcotest.(check bool) "message explains the schema" true (contains msg "schema"));
  (* an unknown future schema tag is also rejected, by name *)
  let future = Filename.concat dir "BENCH_fig8.json" in
  write_file future "{\"schema\":\"simbench-bench-json-99\",\"cells\":[]}";
  (match Baseline.load_bench_file future with
  | Ok _ -> Alcotest.fail "wrong-schema file must be rejected"
  | Error msg ->
    Alcotest.(check bool) "names both schemas" true
      (contains msg "simbench-bench-json-99"
      && contains msg Baseline.bench_schema));
  (* schema 2 (cells without "status") is no longer read *)
  let v2 = Filename.concat dir "BENCH_fig6.json" in
  write_file v2
    "{\"schema\":\"simbench-bench-json-2\",\"experiment\":\"fig6\",\"cells\":[{\"cell\":\"C\",\"engine\":\"e\",\"arch\":\"sba\",\"iters\":1,\"repeats\":1,\"seconds\":0.1,\"mean_seconds\":0.1,\"samples\":[0.1],\"kernel_insns\":5}]}";
  (match Baseline.load_bench_file v2 with
  | Ok _ -> Alcotest.fail "schema-2 file must be rejected"
  | Error msg ->
    Alcotest.(check bool) "names both schemas" true
      (contains msg "simbench-bench-json-2"
      && contains msg Baseline.bench_schema));
  (* malformed JSON surfaces the parser's position *)
  let bad = Filename.concat dir "BENCH_bad.json" in
  write_file bad "{\"schema\": }";
  (match Baseline.load_bench_file bad with
  | Ok _ -> Alcotest.fail "malformed file must be rejected"
  | Error msg -> Alcotest.(check bool) "position carried" true (contains msg "column"));
  rm_rf dir

(* a directory where a run file is expected is an error, not an
   exception *)
let test_directory_for_file () =
  let dir = tmp_dir "sb_regress_dir" in
  let sub = Filename.concat dir "BENCH_x.json" in
  Sys.mkdir sub 0o755;
  List.iter
    (fun (what, result) ->
      match result with
      | Ok _ -> Alcotest.failf "%s: a directory loaded as a run" what
      | Error msg ->
        Alcotest.(check bool) (what ^ " names the file") true
          (contains msg "BENCH_x.json"))
    [
      ("run directory", Result.map ignore (Baseline.load dir));
      ("bench file", Result.map ignore (Baseline.load_bench_file sub));
      ("snapshot", Result.map ignore (Baseline.load_snapshot sub));
    ];
  Sys.rmdir sub;
  rm_rf dir

let test_missing_field_named () =
  let dir = tmp_dir "sb_regress_field" in
  let file = Filename.concat dir "BENCH_x.json" in
  write_file file
    (Printf.sprintf
       "{\"schema\":%S,\"experiment\":\"x\",\"cells\":[{\"cell\":\"C\",\"engine\":\"e\",\"arch\":\"sba\",\"iters\":1,\"repeats\":1,\"seconds\":0.1,\"mean_seconds\":0.1,\"kernel_insns\":5}]}"
       Baseline.bench_schema);
  (match Baseline.load_bench_file file with
  | Ok _ -> Alcotest.fail "missing samples must be rejected"
  | Error msg ->
    Alcotest.(check bool) "names the field" true (contains msg "samples");
    Alcotest.(check bool) "names the cell" true (contains msg "\"C\""));
  (* a missing status is an error, not a silent "ok" *)
  write_file file
    (Printf.sprintf
       "{\"schema\":%S,\"experiment\":\"x\",\"cells\":[{\"cell\":\"C\",\"engine\":\"e\",\"arch\":\"sba\",\"iters\":1,\"repeats\":1,\"seconds\":0.1,\"mean_seconds\":0.1,\"samples\":[0.1],\"kernel_insns\":5}]}"
       Baseline.bench_schema);
  (match Baseline.load_bench_file file with
  | Ok _ -> Alcotest.fail "missing status must be rejected"
  | Error msg ->
    Alcotest.(check bool) "names the status field" true
      (contains msg "missing string field \"status\"");
    Alcotest.(check bool) "names the cell" true (contains msg "\"C\""));
  rm_rf dir

let test_cache_eviction_logged () =
  (* the CI cache-poisoning bugfix: corrupt cache entries degrade to
     misses but are counted (and warned about), and the offending file is
     removed *)
  let dir = tmp_dir "sb_regress_cache" in
  let cache = Cache.create ~dir in
  Cache.reset_evictions ();
  Cache.store cache ~key:"feedface" 7;
  Alcotest.(check (option int)) "round trip" (Some 7) (Cache.load cache ~key:"feedface");
  Alcotest.(check int) "no evictions yet" 0 (Cache.evictions ());
  let file =
    Filename.concat dir
      (List.find
         (fun f -> Filename.check_suffix f ".cache")
         (Array.to_list (Sys.readdir dir)))
  in
  write_file file "poisoned";
  Alcotest.(check (option int)) "corrupt is a miss" None
    (Cache.load cache ~key:"feedface");
  Alcotest.(check int) "eviction counted" 1 (Cache.evictions ());
  Alcotest.(check bool) "offending file removed" false (Sys.file_exists file);
  Alcotest.(check (option int)) "second load is a plain miss" None
    (Cache.load cache ~key:"feedface");
  Alcotest.(check int) "not double-counted" 1 (Cache.evictions ());
  Cache.reset_evictions ();
  rm_rf dir

let () =
  Random.self_init ();
  Alcotest.run "sb_regress"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "error positions" `Quick test_json_error_positions;
        ] );
      ( "classify",
        [
          Alcotest.test_case "regression" `Quick test_classify_regression;
          Alcotest.test_case "improvement" `Quick test_classify_improvement;
          Alcotest.test_case "null: below threshold" `Quick
            test_classify_null_below_threshold;
          Alcotest.test_case "null: within noise" `Quick
            test_classify_null_within_noise;
          Alcotest.test_case "single sample" `Quick test_classify_single_sample;
          Alcotest.test_case "ci helpers" `Quick test_ci_helpers;
        ] );
      ( "compare",
        [
          Alcotest.test_case "pairing" `Quick test_compare_runs_pairing;
          Alcotest.test_case "engine remap" `Quick test_compare_runs_engine_remap;
          Alcotest.test_case "dedup" `Quick test_duplicate_cells_deduped;
          Alcotest.test_case "attribution" `Quick test_category_attribution;
          Alcotest.test_case "failed cells skipped" `Quick
            test_failed_cells_skipped_with_note;
          Alcotest.test_case "degenerate samples skipped" `Quick
            test_degenerate_samples_skipped;
          Alcotest.test_case "engine filter canonical" `Quick
            test_filter_engine_canonical;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "counter gate" `Quick test_counter_gate;
        ] );
      ( "schema",
        [
          Alcotest.test_case "snapshot round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "bench file round trip" `Quick
            test_bench_file_round_trip;
          Alcotest.test_case "old schema rejected" `Quick test_old_schema_rejected;
          Alcotest.test_case "missing field named" `Quick test_missing_field_named;
          Alcotest.test_case "directory for a file" `Quick test_directory_for_file;
          Alcotest.test_case "cache eviction logged" `Quick
            test_cache_eviction_logged;
        ] );
    ]
