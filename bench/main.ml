(* Bechamel micro-benchmarks of the engine hot paths: one group per
   suite category, plus a workload and the checkpointed fast-forward
   pairs.  Run with

     dune exec bench/main.exe

   The paper's tables, figures and ablations are `simbench report` (see
   EXPERIMENTS.md); the repository benchmark is bench/perf. *)

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

let () = run_bechamel ()
