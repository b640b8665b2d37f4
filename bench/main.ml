(* SimBench benchmark harness.

   Usage:
     bench/main.exe                 - regenerate every paper table/figure
     bench/main.exe fig3 fig7       - selected experiments only
     bench/main.exe --all           - the combined report (one prefetch pass
                                      over the whole version sweep, then
                                      every figure)
     bench/main.exe --quick [...]   - cheap settings (CI smoke)
     bench/main.exe -j N            - run independent sweep cells in N
                                      forked workers (-j 1 is today's
                                      sequential path, bit for bit)
     bench/main.exe --cache DIR     - persist measured cells to DIR, keyed
                                      by a digest of the engine knobs /
                                      arch / workload / iteration counts
     bench/main.exe --json DIR      - write BENCH_<experiment>.json per
                                      experiment with the raw cells
     bench/main.exe --deadline SEC  - per-cell wall-clock budget: workers
                                      still running after SEC seconds are
                                      killed and the cell is reported with
                                      status "timeout" (run continues)
     bench/main.exe --retries N     - re-run crashed cells up to N times
                                      with exponential backoff
     bench/main.exe --insn-budget N - watchdog: any engine run past N
                                      guest instructions stops (runaway
                                      cells fail instead of spinning)
     bench/main.exe --switch-at P   - checkpointed fast-forward: run (or
                                      restore) each cell's setup phase up
                                      to P ("kernel" or "insn:N") and
                                      start the timed engine there; pair
                                      with --cache DIR to share one warm
                                      boot across the grid and repeats
     bench/main.exe --bechamel      - Bechamel micro-benchmarks of the
                                      engine hot paths (one Test per suite
                                      category, plus workloads)

   Every experiment prints the same rows/series the paper reports; see
   EXPERIMENTS.md for the expected shapes and the recorded run,
   docs/parallel.md for the scheduler and docs/robustness.md for the
   failure-handling model. *)

let experiments =
  [
    ("all", fun config opts -> Sb_report.Experiments.all ~config ~opts ());
    ("fig2", fun config opts -> Sb_report.Experiments.fig2 ~config ~opts ());
    ("fig3", fun config _ -> Sb_report.Experiments.fig3 ~config ());
    ("fig4", fun _ _ -> Sb_report.Experiments.fig4 ());
    ("fig5", fun _ _ -> Sb_report.Experiments.fig5 ());
    ("fig6", fun config opts -> Sb_report.Experiments.fig6 ~config ~opts ());
    ("fig7", fun config opts -> Sb_report.Experiments.fig7 ~config ~opts ());
    ("fig8", fun config opts -> Sb_report.Experiments.fig8 ~config ~opts ());
    ("ext", fun config opts -> Sb_report.Experiments.extensions ~config ~opts ());
    ( "abl-chain",
      fun config opts -> Sb_report.Ablations.chaining ~config ~opts () );
    ( "abl-tlb",
      fun config opts -> Sb_report.Ablations.page_cache ~config ~opts () );
    ( "abl-opt",
      fun config opts -> Sb_report.Ablations.optimiser ~config ~opts () );
    ( "abl-traces",
      fun config opts -> Sb_report.Ablations.traces ~config ~opts () );
    ( "abl-threaded",
      fun config opts -> Sb_report.Ablations.threaded ~config ~opts () );
    ( "abl-vmexit",
      fun config opts -> Sb_report.Ablations.vm_exit ~config ~opts () );
    ( "abl-predecode",
      fun config opts -> Sb_report.Ablations.predecode ~config ~opts () );
    (* excluded from the default run (like "all"): a deliberate
       crash/hang harness check, see docs/robustness.md *)
    ( "synthetic-faults",
      fun _ opts -> Sb_report.Experiments.synthetic_faults ~opts () );
  ]

let default_skip = [ "all"; "synthetic-faults" ]

(* ------------------------------------------------------------------ *)
(* Machine-readable output                                              *)
(* ------------------------------------------------------------------ *)

let json_of_rows ~experiment ~(opts : Sb_report.Experiments.run_opts)
    ~(config : Sb_report.Experiments.config) rows =
  let open Sb_util.Json in
  Obj
    [
      ("schema", String Sb_regress.Baseline.bench_schema);
      ("experiment", String experiment);
      ("jobs", Int opts.jobs);
      ( "config",
        Obj
          [
            ("scale", Int config.scale);
            ("workload_iters", Int config.workload_iters);
            ("repeats", Int config.repeats);
            ( "switch_at",
              String
                (match config.switch_at with
                | None -> "cold"
                | Some p -> Simbench.Checkpoint.point_to_string p) );
          ] );
      ("cells", List (List.map Sb_report.Experiments.row_to_json rows));
    ]

let write_json ~dir ~experiment ~opts ~config rows =
  Sb_jobs.Cache.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" experiment) in
  let oc = open_out path in
  output_string oc (Sb_util.Json.to_string (json_of_rows ~experiment ~opts ~config rows));
  output_char oc '\n';
  close_out oc;
  Printf.printf "[wrote %s: %d cells]\n%!" path (List.length rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  (* iteration counts chosen so the timed kernel dominates the ~20ms of
     per-run machine construction and guest assembly *)
  let run_bench engine bench ~iters =
    Staged.stage (fun () ->
        ignore (Simbench.Harness.run ~iters ~support ~engine bench))
  in
  let engine_test label engine bench ~iters =
    Test.make ~name:label (run_bench engine bench ~iters)
  in
  let dbt = Simbench.Engines.dbt arch in
  let dbt_nofc =
    Simbench.Engines.dbt_configured arch
      { Sb_dbt.Config.default with Sb_dbt.Config.front_cache = false }
  in
  let dbt_notrace =
    Simbench.Engines.dbt_configured arch
      { Sb_dbt.Config.default with Sb_dbt.Config.trace_threshold = 0 }
  in
  let dbt_closure =
    Simbench.Engines.dbt_configured arch
      { Sb_dbt.Config.default with Sb_dbt.Config.threaded = false }
  in
  let interp = Simbench.Engines.interp arch in
  Test.make_grouped ~name:"simbench"
    [
      Test.make_grouped ~name:"code-generation"
        [
          engine_test "small-blocks/dbt" dbt Simbench.Suite.small_blocks ~iters:2_000;
          engine_test "small-blocks/interp" interp Simbench.Suite.small_blocks
            ~iters:2_000;
        ];
      Test.make_grouped ~name:"control-flow"
        [
          engine_test "intra-direct/dbt" dbt Simbench.Suite.intra_page_direct
            ~iters:100_000;
          (* direct chained loops are exactly what hot traces stitch, so
             this pair isolates the superblock win on the same workload *)
          engine_test "intra-direct/dbt-notrace" dbt_notrace
            Simbench.Suite.intra_page_direct ~iters:100_000;
          (* the same compute-dense loop through the closure backend: this
             pair measures the token-threaded opstream win directly *)
          engine_test "intra-direct/dbt-closure" dbt_closure
            Simbench.Suite.intra_page_direct ~iters:100_000;
          engine_test "intra-direct/interp" interp Simbench.Suite.intra_page_direct
            ~iters:100_000;
          (* indirect branches cannot chain: every taken branch goes through
             block lookup, so this pair isolates the front-cache win *)
          engine_test "intra-indirect/dbt" dbt Simbench.Suite.intra_page_indirect
            ~iters:100_000;
          engine_test "intra-indirect/dbt-nofc" dbt_nofc
            Simbench.Suite.intra_page_indirect ~iters:100_000;
        ];
      Test.make_grouped ~name:"exceptions"
        [
          engine_test "syscall/dbt" dbt Simbench.Suite.system_call ~iters:50_000;
          engine_test "syscall/interp" interp Simbench.Suite.system_call ~iters:50_000;
        ];
      Test.make_grouped ~name:"memory"
        [
          engine_test "hot/dbt" dbt Simbench.Suite.hot_memory_access ~iters:50_000;
          (* threaded vs closure on a load-dominated kernel isolates the
             micro-TLB flat-memory fast path from the dispatch win *)
          engine_test "hot/dbt-closure" dbt_closure Simbench.Suite.hot_memory_access
            ~iters:50_000;
          engine_test "hot/interp" interp Simbench.Suite.hot_memory_access ~iters:50_000;
        ];
      Test.make_grouped ~name:"workloads"
        [
          Test.make ~name:"sjeng/dbt"
            (Staged.stage (fun () ->
                 ignore
                   (Sb_workloads.Workloads.run ~iters:50 ~support ~engine:dbt
                      Sb_workloads.Workloads.sjeng)));
        ];
      (* checkpointed fast-forward on the detailed engine: each cold/ckpt
         pair runs the same cell end to end (machine build, assembly, and
         either setup simulation or checkpoint restore, then the timed
         kernel), so the ratio is the wall-clock win a grid cell sees.
         Setup-heavy cells — high scale, so the kernel is a few hundred
         instructions against a few thousand of setup — are where the
         paper-grid sweeps pay the most per repeat. *)
      (let detailed = Simbench.Engines.detailed arch in
       let store =
         let dir =
           Filename.concat
             (Filename.get_temp_dir_name ())
             (Printf.sprintf "sb-bench-ckpt-%d" (Unix.getpid ()))
         in
         Simbench.Checkpoint.open_store ~dir
       in
       let ckpt_pair name bench ~scale =
         [
           Test.make ~name:(name ^ "/detailed-cold")
             (Staged.stage (fun () ->
                  ignore (Simbench.Harness.run ~scale ~support ~engine:detailed bench)));
           Test.make ~name:(name ^ "/detailed-ckpt")
             (Staged.stage (fun () ->
                  ignore
                    (Simbench.Harness.run ~scale
                       ~switch_at:Simbench.Checkpoint.Kernel_phase
                       ~checkpoints:store ~support ~engine:detailed bench)));
         ]
       in
       (* the workload pair is the setup-heavy case: mcf's graph
          initialization is ~19ms of detailed-engine setup against a
          ~7ms two-pass kernel *)
       let workload_pair name w ~iters =
         [
           Test.make ~name:(name ^ "/detailed-cold")
             (Staged.stage (fun () ->
                  ignore
                    (Sb_workloads.Workloads.run ~iters ~support
                       ~engine:detailed w)));
           Test.make ~name:(name ^ "/detailed-ckpt")
             (Staged.stage (fun () ->
                  ignore
                    (Sb_workloads.Workloads.run ~iters
                       ~switch_at:Simbench.Checkpoint.Kernel_phase
                       ~checkpoints:store ~support ~engine:detailed w)));
         ]
       in
       Test.make_grouped ~name:"checkpoint"
         (workload_pair "mcf" Sb_workloads.Workloads.mcf ~iters:2
         @ workload_pair "sjeng" Sb_workloads.Workloads.sjeng ~iters:2
         @ ckpt_pair "tlb-flush" Simbench.Suite.tlb_flush ~scale:20_000));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Printf.printf "## %s\n" measure;
      Hashtbl.iter
        (fun name o ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Printf.printf "%-45s %14.2f ns/run\n" name est
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        tbl)
    results

(* ------------------------------------------------------------------ *)

type cli = {
  mutable quick : bool;
  mutable bechamel : bool;
  mutable all : bool;
  mutable jobs : int;
  mutable repeats : int option;
  mutable json_dir : string option;
  mutable cache_dir : string option;
  mutable deadline : float option;
  mutable retries : int;
  mutable switch_at : Simbench.Checkpoint.point option;
  mutable names : string list; (* reversed *)
}

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--all] [-j N] [--repeats N] [--json DIR]\n\
    \                [--cache DIR] [--deadline SEC] [--retries N]\n\
    \                [--insn-budget N] [--switch-at POINT] [--bechamel]\n\
    \                [experiment ...]";
  exit 2

let parse_args args =
  let cli =
    {
      quick = false;
      bechamel = false;
      all = false;
      jobs = 1;
      repeats = None;
      json_dir = None;
      cache_dir = None;
      deadline = None;
      retries = 0;
      switch_at = None;
      names = [];
    }
  in
  let int_of a v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "%s expects a positive integer, got %S\n" a v;
      usage ()
  in
  let nat_of a v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ ->
      Printf.eprintf "%s expects a non-negative integer, got %S\n" a v;
      usage ()
  in
  let float_of a v =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> f
    | _ ->
      Printf.eprintf "%s expects a positive number, got %S\n" a v;
      usage ()
  in
  let rec go = function
    | [] -> cli
    | "--quick" :: rest -> cli.quick <- true; go rest
    | "--bechamel" :: rest -> cli.bechamel <- true; go rest
    | "--all" :: rest -> cli.all <- true; go rest
    | "-j" :: v :: rest -> cli.jobs <- int_of "-j" v; go rest
    | "--repeats" :: v :: rest ->
      cli.repeats <- Some (int_of "--repeats" v);
      go rest
    | "--json" :: v :: rest -> cli.json_dir <- Some v; go rest
    | "--cache" :: v :: rest -> cli.cache_dir <- Some v; go rest
    | "--deadline" :: v :: rest ->
      cli.deadline <- Some (float_of "--deadline" v);
      go rest
    | "--retries" :: v :: rest ->
      cli.retries <- nat_of "--retries" v;
      go rest
    | "--switch-at" :: v :: rest ->
      (match Simbench.Checkpoint.parse_point v with
      | Ok p -> cli.switch_at <- Some p
      | Error msg ->
        Printf.eprintf "--switch-at: %s\n" msg;
        usage ());
      go rest
    | "--insn-budget" :: v :: rest ->
      Sb_sim.Runner.set_insn_budget (int_of "--insn-budget" v);
      go rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
      cli.jobs <- int_of "-j" (String.sub a 2 (String.length a - 2));
      go rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
      Printf.eprintf "unknown option %S\n" a;
      usage ()
    | name :: rest -> cli.names <- name :: cli.names; go rest
  in
  go args

let () =
  let cli = parse_args (List.tl (Array.to_list Sys.argv)) in
  if cli.bechamel then run_bechamel ()
  else begin
    let config =
      if cli.quick then Sb_report.Experiments.quick_config
      else Sb_report.Experiments.default_config
    in
    (* timing repeats: the regression detector's significance test needs
       the full sample vector, so CI runs use --quick --repeats 3 *)
    let config =
      match cli.repeats with
      | None -> config
      | Some r -> { config with Sb_report.Experiments.repeats = r }
    in
    (* checkpointed fast-forward: run (or restore) each cell's setup up to
       POINT and start the timed engine there; pair with --cache so the
       warm boots persist and the whole grid shares them *)
    let config =
      { config with Sb_report.Experiments.switch_at = cli.switch_at }
    in
    let opts =
      {
        Sb_report.Experiments.jobs = cli.jobs;
        cache_dir = cli.cache_dir;
        deadline = cli.deadline;
        retries = cli.retries;
      }
    in
    let selected = List.rev cli.names @ (if cli.all then [ "all" ] else []) in
    let to_run =
      match selected with
      | [] ->
        List.filter (fun (name, _) -> not (List.mem name default_skip)) experiments
      | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> Some (name, f)
            | None ->
              Printf.eprintf "unknown experiment %S (have: %s)\n" name
                (String.concat ", " (List.map fst experiments));
              None)
          names
    in
    List.iter
      (fun (name, f) ->
        Printf.printf "=== %s ===\n%!" name;
        Sb_report.Experiments.reset_records ();
        let t0 = Unix.gettimeofday () in
        print_string (f config opts);
        Printf.printf "\n[%s generated in %.1fs]\n\n%!" name
          (Unix.gettimeofday () -. t0);
        match cli.json_dir with
        | None -> ()
        | Some dir ->
          write_json ~dir ~experiment:name ~opts ~config
            (Sb_report.Experiments.recorded ()))
      to_run
  end
