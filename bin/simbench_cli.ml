(* SimBench command-line interface.

   Subcommands:
     list        enumerate benchmarks, engines, workloads and DBT versions
     run         run one benchmark on one engine
     suite       run the full suite on one engine and print the table
     workload    run one SPEC-analog workload
     chaos       deterministic fault injection + differential convergence
     lint        statically check benchmark programs and conventions
     report      run the paper's figures, the extension table and the
                 ablations from one registry, optionally writing bench JSON
     baseline    snapshot a --json run directory as a regression baseline
     compare     statistical regression detection between two recorded runs
     serve       persistent benchmark service over a Unix/TCP socket
     client      submit jobs to / query a running benchmark service
     fsck        check/repair a result-store directory
     chaos-proxy seeded transport-fault proxy for resilience testing *)

open Cmdliner

let arch_conv =
  let parse s =
    Result.map_error (fun msg -> `Msg msg) (Simbench.Engines.arch_of_name s)
  in
  let print ppf a = Format.pp_print_string ppf (Sb_isa.Arch_sig.arch_id_name a) in
  Arg.conv (parse, print)

let arch_arg =
  Arg.(
    value
    & opt arch_conv Sb_isa.Arch_sig.Sba
    & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Guest architecture: sba (ARM analog) or vlx (x86 analog).")

let engine_of_string arch s = Simbench.Engines.of_string arch s

let engine_arg =
  Arg.(
    value & opt string "dbt"
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Engine: interp, dbt, detailed, virt, native, or dbt@VERSION (e.g. \
           dbt@v2.0.0).")

let scale_arg =
  Arg.(
    value & opt int Simbench.Harness.default_scale
    & info [ "scale" ] ~docv:"N" ~doc:"Divide Figure 3 iteration counts by N.")

let iters_arg =
  Arg.(
    value & opt (some int) None
    & info [ "iters" ] ~docv:"N" ~doc:"Exact iteration count (overrides --scale).")

let switch_at_conv =
  let parse s =
    match Simbench.Checkpoint.parse_point s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p =
    Format.pp_print_string ppf (Simbench.Checkpoint.point_to_string p)
  in
  Arg.conv (parse, print)

let switch_at_arg =
  Arg.(
    value
    & opt (some switch_at_conv) None
    & info [ "switch-at" ] ~docv:"POINT"
        ~doc:
          "Checkpointed fast-forward: run setup under a cheap engine (or \
           restore a checkpoint), switch to the timed engine at POINT — \
           $(b,kernel) (the kernel-start phase write) or $(b,insn:N).")

(* converters that turn an out-of-range number into a usage error before
   anything runs *)
let bounded conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected a %s, got %S" what s))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = bounded Arg.int "positive integer" (fun n -> n >= 1)
let non_negative_int = bounded Arg.int "non-negative integer" (fun n -> n >= 0)
let positive_float = bounded Arg.float "positive number" (fun f -> f > 0.0)

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker processes: independent cells run $(docv) at a time in \
           forked workers ($(b,report -j 1) runs them in this process, in \
           order).")

let deadline_arg =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:
          "Per-cell wall-clock budget: a worker still running after \
           $(docv) seconds is killed and its cell reported with status \
           timeout; the run continues.")

let setup_engine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "setup-engine" ] ~docv:"ENGINE"
        ~doc:
          "Engine for the fast-forward phase (default: matched to the timed \
           engine's granularity — interp for per-insn engines, the DBT for \
           itself).")

let ckpt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ckpt" ] ~docv:"DIR"
        ~doc:
          "Checkpoint store directory: snapshots taken at --switch-at are \
           saved here and reused by later runs with the same setup key.")

let print_outcome (o : Simbench.Harness.outcome) =
  Printf.printf "%-28s %-18s iters=%-9d kernel=%.4fs total=%.4fs insns=%d density=%.4f\n"
    o.Simbench.Harness.bench_name o.Simbench.Harness.engine_name
    o.Simbench.Harness.iters o.Simbench.Harness.kernel_seconds
    o.Simbench.Harness.result.Sb_sim.Run_result.wall_seconds
    o.Simbench.Harness.kernel_insns
    (Simbench.Harness.density o)

let with_engine arch engine_name f =
  match engine_of_string arch engine_name with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok engine -> f engine

(* a Figure 3 benchmark, else one of the extension suite *)
let find_bench name =
  match Simbench.Suite.find name with
  | Some _ as b -> b
  | None -> Simbench.Suite_ext.find name

(* the byte of an assembled image at an address; 0 outside the image *)
let image_read8 (program : Sb_asm.Program.t) a =
  let i = a - program.Sb_asm.Program.base in
  let image = program.Sb_asm.Program.image in
  if i >= 0 && i < Bytes.length image then Char.code (Bytes.get image i) else 0

(* ---- list ---- *)

let list_cmd =
  let action () =
    print_endline "Benchmarks (Figure 3):";
    List.iter
      (fun b ->
        Printf.printf "  %-28s %-20s %s\n" b.Simbench.Bench.name
          (Simbench.Category.name b.Simbench.Bench.category)
          b.Simbench.Bench.description)
      Simbench.Suite.all;
    print_endline "\nExtension benchmarks (beyond the paper's 18):";
    List.iter
      (fun b ->
        Printf.printf "  %-28s %-20s %s\n" b.Simbench.Bench.name
          (Simbench.Category.name b.Simbench.Bench.category)
          b.Simbench.Bench.description)
      Simbench.Suite_ext.all;
    print_endline "\nEngines: interp | dbt | detailed | virt | native | dbt@VERSION";
    print_endline "\nDBT versions:";
    Printf.printf "  %s\n" (String.concat ", " Sb_dbt.Version.names);
    print_endline "\nWorkloads (SPEC analogs):";
    List.iter
      (fun w ->
        Printf.printf "  %-12s (%s)\n" w.Sb_workloads.Workloads.name
          w.Sb_workloads.Workloads.spec_name)
      Sb_workloads.Workloads.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate benchmarks, engines and workloads.")
    Term.(const action $ const ())

(* ---- run ---- *)

let run_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name from Figure 3.")
  in
  let counters_arg =
    Arg.(
      value & flag
      & info [ "counters" ] ~doc:"Print the kernel-phase perf counters.")
  in
  let action arch engine_name bench_name scale iters counters switch_at
      setup_engine_name ckpt_dir =
    match find_bench bench_name with
    | None ->
      Printf.eprintf "unknown benchmark %S; try the list command\n" bench_name;
      1
    | Some bench ->
      with_engine arch engine_name (fun engine ->
          let support = Simbench.Engines.support arch in
          let setup_engine =
            match setup_engine_name with
            | None -> None
            | Some s -> (
              match engine_of_string arch s with
              | Ok e -> Some e
              | Error msg ->
                prerr_endline msg;
                exit 1)
          in
          let checkpoints =
            Option.map (fun dir -> Simbench.Checkpoint.open_store ~dir)
              ckpt_dir
          in
          let o =
            Simbench.Harness.run ~scale ?iters ?switch_at ?setup_engine
              ?checkpoints ~support ~engine bench
          in
          print_outcome o;
          if counters then begin
            match o.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf with
            | Some kp ->
              print_endline "kernel-phase counters:";
              List.iter
                (fun (c, v) ->
                  Printf.printf "  %-24s %d\n" (Sb_sim.Perf.to_string c) v)
                (Sb_sim.Perf.to_alist kp)
            | None -> print_endline "no kernel perf snapshot"
          end;
          0)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one benchmark on one engine.")
    Term.(
      const action $ arch_arg $ engine_arg $ bench_arg $ scale_arg $ iters_arg
      $ counters_arg $ switch_at_arg $ setup_engine_arg $ ckpt_arg)

(* ---- suite ---- *)

let suite_cmd =
  let action arch engine_name scale switch_at ckpt_dir =
    with_engine arch engine_name (fun engine ->
        let support = Simbench.Engines.support arch in
        let checkpoints =
          Option.map (fun dir -> Simbench.Checkpoint.open_store ~dir) ckpt_dir
        in
        List.iter
          (fun bench ->
            print_outcome
              (Simbench.Harness.run ~scale ?switch_at ?checkpoints ~support
                 ~engine bench))
          Simbench.Suite.all;
        0)
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run the full 18-benchmark suite on one engine.")
    Term.(
      const action $ arch_arg $ engine_arg $ scale_arg $ switch_at_arg
      $ ckpt_arg)

(* ---- workload ---- *)

let workload_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (e.g. sjeng, mcf).")
  in
  let iters_arg =
    Arg.(value & opt int 40 & info [ "iters" ] ~docv:"N" ~doc:"Kernel passes.")
  in
  let action arch engine_name name iters switch_at ckpt_dir =
    match Sb_workloads.Workloads.find name with
    | None ->
      Printf.eprintf "unknown workload %S; try the list command\n" name;
      1
    | Some w ->
      with_engine arch engine_name (fun engine ->
          let support = Simbench.Engines.support arch in
          let checkpoints =
            Option.map (fun dir -> Simbench.Checkpoint.open_store ~dir)
              ckpt_dir
          in
          print_outcome
            (Sb_workloads.Workloads.run ~iters ?switch_at ?checkpoints ~support
               ~engine w);
          0)
  in
  Cmd.v (Cmd.info "workload" ~doc:"Run one SPEC-analog workload on one engine.")
    Term.(
      const action $ arch_arg $ engine_arg $ name_arg $ iters_arg
      $ switch_at_arg $ ckpt_arg)

(* ---- disasm ---- *)

let disasm_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark whose assembled image to disassemble.")
  in
  let limit_arg =
    Arg.(
      value & opt int 256
      & info [ "limit" ] ~docv:"BYTES" ~doc:"How many bytes to disassemble.")
  in
  let action arch bench_name limit =
    match find_bench bench_name with
    | None ->
      Printf.eprintf "unknown benchmark %S\n" bench_name;
      1
    | Some bench ->
      let support = Simbench.Engines.support arch in
      let program =
        Simbench.Rt.program ~support ~platform:Simbench.Platform.sbp_ref ~bench
      in
      let image = program.Sb_asm.Program.image in
      let base = program.Sb_asm.Program.base in
      let read8 = image_read8 program in
      let arch_mod = Sb_analysis.Tv.arch_module arch in
      Printf.printf "%s on %s: image %d bytes, entry 0x%x\n\n" bench_name
        (Sb_isa.Arch_sig.arch_id_name arch)
        (Bytes.length image) program.Sb_asm.Program.entry;
      List.iter
        (fun (name, a) -> Printf.printf "%08x <%s>\n" a name)
        (List.filteri (fun i _ -> i < 12) program.Sb_asm.Program.symbols);
      print_newline ();
      print_string
        (Sb_isa.Disasm.dump ~arch:arch_mod ~read8 ~base
           ~len:(min limit (Bytes.length image)));
      0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a benchmark's assembled guest image.")
    Term.(const action $ arch_arg $ bench_arg $ limit_arg)

(* ---- verify ---- *)

let verify_cmd =
  let seeds_arg =
    Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"N" ~doc:"Random programs to try.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate-passes" ]
          ~doc:
            "Statically validate every DBT optimiser pass on every \
             translated block during the sweep; invalid rewrites are \
             reported alongside dynamic divergences.")
  in
  let action arch seeds validate =
    let engines = Sb_verify.Verify.default_engines arch in
    Printf.printf "verifying %d random programs across %d engines (%s%s)...\n%!"
      seeds (List.length engines)
      (Sb_isa.Arch_sig.arch_id_name arch)
      (if validate then ", static pass validation on" else "");
    let validate_passes =
      if validate then
        Some
          (fun ~version ~pass ~before ~after ->
            Option.map Sb_analysis.Ir_check.message
              (Sb_analysis.Ir_check.check ?version ~pass ~before ~after ()))
      else None
    in
    match
      Sb_verify.Verify.random_sweep ~arch ~engines ~seeds ?validate_passes ()
    with
    | [] ->
      Printf.printf "OK: all engines agree on all %d programs\n" seeds;
      0
    | divergences ->
      List.iter
        (fun (d : Sb_verify.Verify.divergence) ->
          Printf.printf "DIVERGENCE seed=%s: %s vs %s: %s\n"
            (match d.Sb_verify.Verify.seed with Some s -> string_of_int s | None -> "?")
            d.Sb_verify.Verify.reference_engine d.Sb_verify.Verify.diverging_engine
            d.Sb_verify.Verify.detail)
        divergences;
      1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Differentially verify all engines on randomized guest programs.")
    Term.(const action $ arch_arg $ seeds_arg $ validate_arg)

(* ---- chaos ---- *)

let chaos_cmd =
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"First fault-plan seed; plans for seeds N, N+1, ... are checked.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"COUNT" ~doc:"How many consecutive fault plans to check.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Check a single plan (CI smoke settings).")
  in
  let plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "plan" ] ~docv:"FILE"
          ~doc:
            "Replay one serialized fault plan (JSON, schema \
             simbench-fault-plan-1) instead of generating plans from seeds.")
  in
  let save_plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-plan" ] ~docv:"FILE"
          ~doc:
            "Write the (first) checked plan as JSON — the thing to attach \
             to a bug report so a divergence can be replayed anywhere.")
  in
  let action arch seed seeds quick plan_file save_plan =
    let engines = Sb_verify.Verify.default_engines arch in
    let plans =
      match plan_file with
      | Some file -> (
        match Sb_fault.Plan.load file with
        | Ok p -> Ok [ p ]
        | Error msg -> Error msg)
      | None ->
        let count = if quick then 1 else max 1 seeds in
        Ok
          (List.init count (fun i ->
               Sb_fault.Plan.generate ~seed:(seed + i)))
    in
    match plans with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok plans ->
      (match (save_plan, plans) with
      | Some out, p :: _ ->
        Sb_fault.Plan.save out p;
        Printf.printf "[wrote plan for seed %d to %s]\n" p.Sb_fault.Plan.seed out
      | _ -> ());
      Printf.printf
        "chaos: %d fault plan%s across %d engines (%s)...\n%!"
        (List.length plans)
        (if List.length plans = 1 then "" else "s")
        (List.length engines)
        (Sb_isa.Arch_sig.arch_id_name arch);
      let failures =
        List.filter_map
          (fun (p : Sb_fault.Plan.t) ->
            match Sb_fault.Fault.check ~engines ~arch p with
            | Ok (o : Sb_verify.Verify.outcome) ->
              Printf.printf
                "  seed %-6d mmio=%-2d storm=%d bus_errors=%d flips=%d irqs=%d \
                 -> all engines agree (halted=%b)\n%!"
                p.Sb_fault.Plan.seed p.Sb_fault.Plan.mmio_chunks
                p.Sb_fault.Plan.storm_chunks
                (List.length p.Sb_fault.Plan.bus_errors)
                (List.length p.Sb_fault.Plan.bit_flips)
                (List.length p.Sb_fault.Plan.spurious_irqs)
                o.Sb_verify.Verify.halted;
              None
            | Error (d : Sb_verify.Verify.divergence) ->
              Printf.printf "  seed %-6d DIVERGENCE %s vs %s: %s\n%!"
                p.Sb_fault.Plan.seed d.Sb_verify.Verify.reference_engine
                d.Sb_verify.Verify.diverging_engine d.Sb_verify.Verify.detail;
              Some d)
          plans
      in
      if failures = [] then begin
        Printf.printf "OK: engines converge under all %d fault plans\n"
          (List.length plans);
        0
      end
      else begin
        Printf.printf "%d of %d fault plans diverged\n" (List.length failures)
          (List.length plans);
        1
      end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault injection with differential checking: arm a \
          seeded fault plan (bus errors on device accesses, RAM bit flips, \
          spurious masked interrupts, TLB-invalidation storms) identically \
          on every engine and demand they converge to the same \
          architectural state or the same guest exception.  See \
          docs/robustness.md.")
    Term.(
      const action $ arch_arg $ seed_arg $ seeds_arg $ quick_arg $ plan_arg
      $ save_plan_arg)

(* ---- lint ---- *)

let lint_cmd =
  let benches_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to lint; the whole suite by default.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit nonzero on warnings too, not just errors.")
  in
  let workloads_arg =
    Arg.(
      value & flag
      & info [ "workloads" ] ~doc:"Also lint the SPEC-analog workload programs.")
  in
  let arch_opt_arg =
    Arg.(
      value
      & opt (some arch_conv) None
      & info [ "a"; "arch" ] ~docv:"ARCH"
          ~doc:"Lint under one architecture support package only (default: all).")
  in
  let action arch_opt json strict workloads names =
    let all_benches =
      Simbench.Suite.all @ Simbench.Suite_ext.all
      @ (if workloads then
           List.map (fun w -> w.Sb_workloads.Workloads.bench) Sb_workloads.Workloads.all
         else [])
    in
    let benches =
      if names = [] then Ok all_benches
      else
        let find n =
          match
            List.find_opt
              (fun b ->
                String.lowercase_ascii b.Simbench.Bench.name
                = String.lowercase_ascii n)
              all_benches
          with
          | Some b -> Ok b
          | None -> Error n
        in
        List.fold_left
          (fun acc n ->
            match (acc, find n) with
            | Error e, _ -> Error e
            | _, Error n -> Error n
            | Ok bs, Ok b -> Ok (bs @ [ b ]))
          (Ok []) names
    in
    match benches with
    | Error n ->
      Printf.eprintf "unknown benchmark %S\n" n;
      1
    | Ok benches ->
      let arches =
        match arch_opt with
        | Some a -> [ a ]
        | None -> Simbench.Engines.all_arches
      in
      let results =
        List.concat_map
          (fun arch ->
            let support = Simbench.Engines.support arch in
            List.map
              (fun bench ->
                ( bench.Simbench.Bench.name,
                  Simbench.Support.name support,
                  Sb_analysis.Lint.lint_bench ~support bench ))
              benches)
          arches
      in
      (* Pass-validator sweep: statically prove the DBT optimiser pipeline
         architecturally transparent over each shipped image.  The newest
         release runs the longest pass prefix, so validating it under our
         own chunking subsumes every older release. *)
      let sweep_version, sweep_config =
        List.nth Sb_dbt.Version.all (List.length Sb_dbt.Version.all - 1)
      in
      let pass_violations =
        List.concat_map
          (fun arch ->
            let support = Simbench.Engines.support arch in
            List.concat_map
              (fun bench ->
                let program =
                  Simbench.Rt.program ~support
                    ~platform:Simbench.Platform.sbp_ref ~bench
                in
                List.map
                  (fun v ->
                    (bench.Simbench.Bench.name, Simbench.Support.name support, v))
                  (Sb_analysis.Tv.sweep_program ~arch ~config:sweep_config
                     ~version:sweep_version ~read8:(image_read8 program)
                     ~base:program.Sb_asm.Program.base
                     ~len:(Bytes.length program.Sb_asm.Program.image) ()))
              benches)
          arches
      in
      let n_errors = ref 0 and n_warnings = ref 0 in
      List.iter
        (fun (_, _, fs) ->
          List.iter
            (fun f ->
              match f.Sb_analysis.Lint.severity with
              | Sb_analysis.Lint.Error -> incr n_errors
              | Sb_analysis.Lint.Warning -> incr n_warnings)
            fs)
        results;
      n_errors := !n_errors + List.length pass_violations;
      if json then
        print_endline
          (Sb_util.Json.to_string
             (Sb_analysis.Lint.to_json ~errors:!n_errors ~warnings:!n_warnings
                results pass_violations))
      else begin
        List.iter
          (fun (bench, arch, fs) ->
            List.iter
              (fun f ->
                Printf.printf "%s [%s]: %s\n" bench arch
                  (Sb_analysis.Lint.render f))
              fs)
          results;
        List.iter
          (fun (bench, arch, v) ->
            Printf.printf "%s [%s]: %s\n" bench arch
              (Sb_analysis.Ir_check.message v))
          pass_violations;
        Printf.printf "%d error%s, %d warning%s across %d lints\n" !n_errors
          (if !n_errors = 1 then "" else "s")
          !n_warnings
          (if !n_warnings = 1 then "" else "s")
          (List.length results)
      end;
      if !n_errors > 0 || (strict && !n_warnings > 0) then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check benchmark programs: label graph, reachability, \
          use-before-def, and the v3/v4/sp/lr register conventions.")
    Term.(
      const action $ arch_opt_arg $ json_arg $ strict_arg $ workloads_arg
      $ benches_arg)

(* ---- tv ---- *)

let tv_cmd =
  let arch_opt_arg =
    Arg.(
      value
      & opt (some arch_conv) None
      & info [ "a"; "arch" ] ~docv:"ARCH"
          ~doc:"Validate one architecture only (default: all).")
  in
  let versions_arg =
    Arg.(
      value & opt_all string []
      & info [ "V"; "dbt-version" ] ~docv:"VERSION"
          ~doc:
            "DBT version(s) to validate (repeatable); all registered \
             versions by default.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Also fail when the encoding enumeration does not tile the \
             selector space (gaps, overlaps, or an unskipped class without \
             cases).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Per-class check-count table.")
  in
  let action arch_opt versions json strict verbose =
    let arches =
      match arch_opt with Some a -> [ a ] | None -> Simbench.Engines.all_arches
    in
    let versions = match versions with [] -> None | vs -> Some vs in
    match List.map (fun arch -> Sb_analysis.Tv.run ~arch ?versions ()) arches with
    | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      2
    | reports ->
      if json then
        print_endline
          (Sb_util.Json.to_string
             (Sb_util.Json.Obj
                [
                  ("schema", Sb_util.Json.String Sb_analysis.Tv.json_schema);
                  ( "reports",
                    Sb_util.Json.List
                      (List.map Sb_analysis.Tv.to_json reports) );
                ]))
      else List.iter (fun r -> print_string (Sb_analysis.Tv.render ~verbose r)) reports;
      if List.for_all (Sb_analysis.Tv.ok ~strict) reports then 0 else 1
  in
  Cmd.v
    (Cmd.info "tv"
       ~doc:
         "Symbolic translation validation: prove the IR the DBT emits for \
          every decodable encoding matches the interpreter's reference \
          semantics, for every registered DBT version.")
    Term.(
      const action $ arch_opt_arg $ versions_arg $ json_arg $ strict_arg
      $ verbose_arg)

(* ---- debug ---- *)

let debug_cmd =
  let bench_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark to debug.")
  in
  let break_arg =
    Arg.(
      value & opt (some string) None
      & info [ "break" ] ~docv:"LABEL" ~doc:"Break at this program label.")
  in
  let steps_arg =
    Arg.(
      value & opt int 16
      & info [ "steps" ] ~docv:"N" ~doc:"Single-steps to trace after the break.")
  in
  let action arch engine_name bench_name break steps =
    match find_bench bench_name with
    | None ->
      Printf.eprintf "unknown benchmark %S\n" bench_name;
      1
    | Some bench ->
      with_engine arch engine_name (fun engine ->
          let support = Simbench.Engines.support arch in
          let platform = Simbench.Platform.sbp_ref in
          let program = Simbench.Rt.program ~support ~platform ~bench in
          let machine = Simbench.Platform.machine platform () in
          Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev 10;
          Sb_sim.Machine.load_program machine program;
          let dbg =
            Sb_sim.Debugger.create ~engine ~arch:(Sb_analysis.Tv.arch_module arch) machine
          in
          (match break with
          | Some label -> (
            match Sb_asm.Program.symbol_opt program label with
            | Some addr ->
              Sb_sim.Debugger.add_breakpoint dbg addr;
              (match Sb_sim.Debugger.continue_ dbg with
              | Sb_sim.Debugger.Breakpoint addr ->
                Printf.printf "breakpoint hit at 0x%x after %d instructions\n\n"
                  addr
                  (Sb_sim.Debugger.instructions_retired dbg)
              | _ -> Printf.printf "never reached %s\n" label)
            | None -> Printf.printf "no such label %S; known labels:\n%s\n" label
                (String.concat ", " (List.map fst program.Sb_asm.Program.symbols)))
          | None -> ());
          for _ = 1 to steps do
            Printf.printf "%s\n"
              (Sb_sim.Debugger.disassemble_here ~count:1 dbg);
            ignore (Sb_sim.Debugger.step dbg)
          done;
          print_newline ();
          print_string (Sb_sim.Debugger.dump_registers dbg);
          0)
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:"Single-step a benchmark under a debugger with breakpoints.")
    Term.(const action $ arch_arg $ engine_arg $ bench_arg $ break_arg $ steps_arg)

(* ---- serve / client ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain listener socket path.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N" ~doc:"Loopback TCP listener port.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persistent result cache shared by every client: identical \
             cells across requests and restarts cost one simulation.  The \
             directory may be the one $(b,report --cache) uses, but the two \
             never share rows: their keys and stored values differ.")
  in
  let window_arg =
    Arg.(
      value & opt int 0
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Max in-flight cells per client (backpressure); default 2x \
             --jobs.")
  in
  let max_buffer_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-buffer" ] ~docv:"BYTES"
          ~doc:
            "Outbound watermark per client: no new cells are dispatched for \
             a client buffering more result bytes than this.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Log connections and jobs to stderr.")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt float Sb_serve.Serve.default_config.Sb_serve.Serve.heartbeat
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "Client-liveness interval announced in the hello frame; any \
             inbound byte counts.  0 disables dropping silent clients.")
  in
  let miss_limit_arg =
    Arg.(
      value
      & opt int Sb_serve.Serve.default_config.Sb_serve.Serve.miss_limit
      & info [ "miss-limit" ] ~docv:"N"
          ~doc:
            "Consecutive missed heartbeat intervals before a silent client \
             is dropped.")
  in
  let action socket port jobs cache deadline window max_buffer heartbeat
      miss_limit verbose =
    if socket = None && port = None then begin
      prerr_endline "serve: need --socket PATH and/or --port N";
      2
    end
    else begin
      let cfg =
        {
          Sb_serve.Serve.unix_path = socket;
          tcp_port = port;
          jobs;
          cache_dir = cache;
          deadline;
          window;
          max_buffer;
          heartbeat;
          miss_limit;
          verbose;
        }
      in
      match Sb_serve.Serve.create cfg with
      | exception Invalid_argument msg ->
        prerr_endline msg;
        2
      | exception Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "serve: %s %s: %s\n" fn arg (Unix.error_message e);
        2
      | t ->
        Sb_serve.Serve.run t;
        0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the benchmark service: a persistent daemon that accepts JSON \
          job submissions over a socket, shards cells across a worker pool, \
          deduplicates identical requests through a shared \
          content-addressed result store, and streams rows back as they \
          land.  SIGTERM drains gracefully and exits 0.  See docs/serve.md.")
    Term.(
      const action $ socket_arg $ port_arg $ jobs_arg $ cache_arg
      $ deadline_arg $ window_arg $ max_buffer_arg $ heartbeat_arg
      $ miss_limit_arg $ verbose_arg)

let client_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Server address: unix:PATH, tcp:HOST:PORT, or a bare Unix \
             socket path.")
  in
  let spec_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SPEC.json"
          ~doc:
            "Job spec file: a JSON object with a \"cells\" array of \
             $(i,{bench, engine, arch, iters?, repeats?}) objects.")
  in
  let cell_arg =
    Arg.(
      value & opt_all string []
      & info [ "cell" ] ~docv:"BENCH"
          ~doc:
            "Inline cell (repeatable): run $(docv) with the --engine/--arch/\
             --iters/--repeats settings.")
  in
  let repeats_arg =
    Arg.(
      value & opt int 1
      & info [ "repeats" ] ~docv:"N" ~doc:"Timing repeats per inline cell.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Job id (default: derived from the pid).")
  in
  let cancel_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel" ] ~docv:"N"
          ~doc:
            "Cancel the job after receiving N rows; remaining queued cells \
             are dropped without killing workers.")
  in
  let status_arg =
    Arg.(
      value & flag
      & info [ "status" ] ~doc:"Print the server's status counters as JSON.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Print every row the server knows as a bench-schema run (pipe to \
             a file and feed it to compare/baseline).")
  in
  let stop_arg =
    Arg.(
      value & flag
      & info [ "stop" ] ~doc:"Ask the server to shut down gracefully.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the received rows as a bench-schema JSON file \
             (readable by compare/baseline).")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Sb_serve.Resilient.default_config.Sb_serve.Resilient.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Reconnect budget for a submission: on a lost or garbled \
             connection the client reconnects and resumes the cells it has \
             not yet received (rows are never duplicated).  0 fails fast.")
  in
  let backoff_arg =
    Arg.(
      value
      & opt float Sb_serve.Resilient.default_config.Sb_serve.Resilient.backoff
      & info [ "backoff" ] ~docv:"SECS"
          ~doc:
            "First reconnect delay; doubles per attempt (with jitter) up to \
             a 5 s ceiling.")
  in
  let print_row ?(retried = false) ~cached cell =
    let s name =
      match
        Option.bind (Sb_util.Json.member name cell) Sb_util.Json.string_opt
      with
      | Some v -> v
      | None -> "?"
    in
    let seconds =
      match
        Option.bind (Sb_util.Json.member "seconds" cell) Sb_util.Json.float_opt
      with
      | Some v -> Printf.sprintf "%.4fs" v
      | None -> "-"
    in
    Printf.printf "%-12s %-28s %-14s %-5s %10s%s%s\n%!" (s "status") (s "cell")
      (s "engine") (s "arch") seconds
      (if cached then "  (cached)" else "")
      (if retried then "  (retried)" else "")
  in
  let specs_of_file file =
    match open_in_bin file with
    | exception Sys_error msg -> Error msg
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in_noerr ic;
      (match Sb_util.Json.of_string s with
      | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
      | Ok j -> (
        match
          Option.bind (Sb_util.Json.member "schema" j) Sb_util.Json.string_opt
        with
        | Some tag when tag <> Sb_serve.Protocol.schema ->
          Error
            (Printf.sprintf "%s: unsupported schema %S (expected %S)" file tag
               Sb_serve.Protocol.schema)
        | _ -> Sb_serve.Protocol.specs_of_json j))
  in
  (* transport failures get their own exit codes so scripts (and the CI
     soak gates) can tell "no server there" (3) from "the server died
     under me" (4) from usage/protocol errors (2) *)
  let err_exit = function
    | Sb_serve.Client.Connect_failed _ -> 3
    | Sb_serve.Client.Server_gone _ -> 4
    | Sb_serve.Client.Protocol_error _ | Sb_serve.Client.Server_error _ -> 2
  in
  let fail err =
    prerr_endline (Sb_serve.Client.error_message err);
    err_exit err
  in
  let action addr spec_file cells arch engine iters repeats id cancel_after
      status dump stop json_out retries backoff =
    let with_conn f =
      match Sb_serve.Client.connect addr with
      | Error err -> fail err
      | Ok conn ->
        let code = f conn in
        Sb_serve.Client.close conn;
        code
    in
    let report_outcome ?stats outcome rows_acc =
      Option.iter
        (fun out ->
          Sb_regress.Baseline.write_json ~out
            (Sb_regress.Baseline.bench_json ~experiment:"serve"
               (List.rev rows_acc)))
        json_out;
      (match stats with
      | Some s when s.Sb_serve.Resilient.st_reconnects > 0 ->
        Printf.printf "reconnects: %d (rows retried: %d, duplicates dropped: %d)\n"
          s.Sb_serve.Resilient.st_reconnects s.Sb_serve.Resilient.st_rows_retried
          s.Sb_serve.Resilient.st_duplicates
      | _ -> ());
      match outcome with
      | Sb_serve.Client.Completed { rows; failed = 0 } ->
        Printf.printf "done: %d rows\n" rows;
        0
      | Sb_serve.Client.Completed { rows; failed } ->
        Printf.eprintf "done with failures: %d rows, %d failed\n" rows failed;
        1
      | Sb_serve.Client.Was_cancelled { dropped } ->
        Printf.printf "cancelled: %d cells dropped\n" dropped;
        if cancel_after <> None then 0 else 1
      | Sb_serve.Client.Server_bye reason ->
        Printf.eprintf "server shut down mid-job: %s\n" reason;
        1
    in
    if status then
      with_conn (fun conn ->
          match Sb_serve.Client.status conn with
          | Ok j ->
            print_endline (Sb_util.Json.to_string j);
            0
          | Error err ->
            prerr_endline (Sb_serve.Client.error_message err);
            err_exit err)
    else if dump then
      with_conn (fun conn ->
          match Sb_serve.Client.dump conn with
          | Ok (_source, cells) ->
            print_endline
              (Sb_util.Json.to_string
                 (Sb_regress.Baseline.bench_json ~experiment:"serve" cells));
            0
          | Error err ->
            prerr_endline (Sb_serve.Client.error_message err);
            err_exit err)
    else if stop then
      with_conn (fun conn ->
          match Sb_serve.Client.shutdown conn with
          | Ok () -> 0
          | Error err ->
            prerr_endline (Sb_serve.Client.error_message err);
            err_exit err)
    else begin
      let specs =
        match (spec_file, cells) with
        | Some file, [] -> specs_of_file file
        | None, (_ :: _ as names) ->
          Ok
            (List.map
               (fun name ->
                 {
                   Sb_serve.Protocol.sp_bench = name;
                   sp_engine = engine;
                   sp_arch = arch;
                   sp_iters = iters;
                   sp_repeats = repeats;
                 })
               names)
        | Some _, _ :: _ -> Error "give a spec file or --cell, not both"
        | None, [] ->
          Error
            "nothing to do: give a spec file, --cell, --status, --dump or \
             --stop"
      in
      match specs with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok specs -> (
        let id =
          match id with
          | Some id -> id
          | None -> Printf.sprintf "job-%d" (Unix.getpid ())
        in
        let rows = ref [] in
        match cancel_after with
        | Some _ ->
          (* the cancellation path drives one connection by hand; a
             reconnect would defeat the point of the test *)
          with_conn (fun conn ->
              let on_row ~key:_ ~cached cell =
                rows := cell :: !rows;
                print_row ~cached cell
              in
              match
                Sb_serve.Client.submit ?cancel_after ~on_row conn ~id
                  ~cells:specs
              with
              | Error err ->
                prerr_endline (Sb_serve.Client.error_message err);
                err_exit err
              | Ok outcome -> report_outcome outcome !rows)
        | None -> (
          let cfg =
            {
              Sb_serve.Resilient.default_config with
              Sb_serve.Resilient.retries;
              backoff;
              seed = Unix.getpid ();
            }
          in
          let on_row ~key:_ ~cached ~retried cell =
            rows := cell :: !rows;
            print_row ~retried ~cached cell
          in
          let on_event msg = Printf.eprintf "client: %s\n%!" msg in
          match
            Sb_serve.Resilient.submit ~cfg ~on_event ~on_row ~addr ~id
              ~cells:specs ()
          with
          | Error err -> fail err
          | Ok { Sb_serve.Resilient.ended; stats } ->
            report_outcome ~stats ended !rows))
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running benchmark service: submit jobs (spec file or \
          inline --cell), stream rows, cancel mid-run, query status, or \
          dump the server's accumulated rows as a bench-schema run.")
    Term.(
      const action $ connect_arg $ spec_arg $ cell_arg $ arch_arg $ engine_arg
      $ iters_arg $ repeats_arg $ id_arg $ cancel_after_arg $ status_arg $ dump_arg $ stop_arg $ json_arg $ retries_arg
      $ backoff_arg)

(* ---- fsck ---- *)

let fsck_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Cache/checkpoint/baseline directory to check.")
  in
  let repair_arg =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Evict damaged entries (truncated, key-mismatched, stale temp \
             files); the store degrades to cache misses instead of poisoning \
             a run.  Good entries are never touched.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable report on stdout.")
  in
  let action dir repair json =
    match Sb_jobs.Fsck.scan ~repair ~dir () with
    | Error msg ->
      Printf.eprintf "fsck: %s\n" msg;
      2
    | Ok r ->
      if json then
        print_endline (Sb_util.Json.to_string (Sb_jobs.Fsck.report_to_json r))
      else begin
        List.iter
          (fun e ->
            if e.Sb_jobs.Fsck.verdict <> Sb_jobs.Fsck.Ok_entry then
              Printf.printf "%-12s %s%s\n"
                (Sb_jobs.Fsck.verdict_name e.Sb_jobs.Fsck.verdict)
                e.Sb_jobs.Fsck.file
                (if e.Sb_jobs.Fsck.detail = "" then ""
                 else " (" ^ e.Sb_jobs.Fsck.detail ^ ")"))
          r.Sb_jobs.Fsck.entries;
        Printf.printf
          "fsck %s: %d ok, %d truncated, %d key-mismatch, %d stale-tmp, %d \
           live-tmp%s\n"
          r.Sb_jobs.Fsck.dir r.Sb_jobs.Fsck.ok r.Sb_jobs.Fsck.truncated
          r.Sb_jobs.Fsck.key_mismatch r.Sb_jobs.Fsck.stale_tmp
          r.Sb_jobs.Fsck.live_tmp
          (if repair then
             Printf.sprintf " (%d repaired, %d unrepairable)"
               r.Sb_jobs.Fsck.repaired r.Sb_jobs.Fsck.unrepairable
           else "")
      end;
      if r.Sb_jobs.Fsck.unrepairable > 0 then 2
      else if repair || Sb_jobs.Fsck.clean r then 0
      else 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check (and with --repair, heal) a result-store directory: classify \
          every entry as ok, truncated, key-mismatched or a stale temp file. \
          Exits 0 when clean or fully repaired, 1 when damage was found \
          without --repair, 2 on unrepairable damage.")
    Term.(const action $ dir_arg $ repair_arg $ json_arg)

(* ---- chaos-proxy ---- *)

let chaos_proxy_cmd =
  let listen_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Address to accept clients on (unix:PATH or tcp:PORT).")
  in
  let upstream_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "upstream" ] ~docv:"ADDR"
          ~doc:"The real server's address.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-schedule seed: the same seed replays the same resets, \
             corruptions and delays.")
  in
  let reset_arg =
    Arg.(
      value
      & opt (pair ~sep:',' int int) (0, 0)
      & info [ "reset-after" ] ~docv:"MIN,MAX"
          ~doc:
            "Inject a mid-message connection reset every MIN..MAX forwarded \
             bytes per direction; 0,0 disables.")
  in
  let corrupt_arg =
    Arg.(
      value
      & opt (pair ~sep:',' int int) (0, 0)
      & info [ "corrupt-after" ] ~docv:"MIN,MAX"
          ~doc:
            "Corrupt one byte (to NUL — never valid frame JSON, so always \
             detected) every MIN..MAX forwarded bytes; 0,0 disables.")
  in
  let delay_arg =
    Arg.(
      value & opt float 0.0
      & info [ "max-delay" ] ~docv:"SECS"
          ~doc:"Upper bound of injected per-chunk delays; 0 disables.")
  in
  let chunk_arg =
    Arg.(
      value & opt int 256
      & info [ "chunk" ] ~docv:"BYTES"
          ~doc:"Max bytes forwarded per read (small values force partial \
                frames).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ] ~doc:"Log injected faults to stderr.")
  in
  let action listen upstream seed reset_after corrupt_after max_delay chunk
      verbose =
    let cfg =
      {
        Sb_serve.Chaosproxy.listen;
        upstream;
        seed;
        reset_after;
        corrupt_after;
        max_delay;
        chunk;
        verbose;
      }
    in
    match Sb_serve.Chaosproxy.create cfg with
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "chaos-proxy: %s %s: %s\n" fn arg (Unix.error_message e);
      2
    | t ->
      Sb_serve.Chaosproxy.run t;
      0
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:
         "Run a seeded transport-chaos proxy in front of the benchmark \
          service: partial frames, bounded delays, mid-message resets and \
          byte corruption, replayable per seed.  What the resilient client \
          and the CI chaos-soak gate are tested against.  SIGTERM exits \
          cleanly.")
    Term.(
      const action $ listen_arg $ upstream_arg $ seed_arg $ reset_arg
      $ corrupt_arg $ delay_arg $ chunk_arg $ verbose_arg)

(* ---- baseline / compare ---- *)

(* baseline/compare accept "serve:ADDR" run paths: the rows are pulled from
   a live server's dump instead of a file or --json directory. *)
let load_run path =
  let prefix = "serve:" in
  if
    String.length path > String.length prefix
    && String.sub path 0 (String.length prefix) = prefix
  then
    let addr =
      String.sub path (String.length prefix)
        (String.length path - String.length prefix)
    in
    match Sb_serve.Client.connect addr with
    | Error err -> Error (Sb_serve.Client.error_message err)
    | Ok conn ->
      let r =
        Result.map_error Sb_serve.Client.error_message
          (Sb_serve.Client.dump conn)
      in
      Sb_serve.Client.close conn;
      Result.bind r (fun (_source, cells) ->
          Sb_regress.Baseline.cells_of_list ~source:path ~experiment:"serve"
            cells
          |> Result.map (fun cells -> { Sb_regress.Regress.source = path; cells }))
  else Sb_regress.Baseline.load path

let baseline_cmd =
  let json_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:
            "Run to snapshot: a BENCH_*.json directory written by \
             $(b,report --json DIR), a single run file, or serve:ADDR to \
             pull the rows from a live benchmark service.")
  in
  let out_arg =
    Arg.(
      value & opt string "baseline.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Snapshot file to write.")
  in
  let action dir out =
    match load_run dir with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok run ->
      Sb_regress.Baseline.write_snapshot ~out run;
      Printf.printf "baseline: %d cells from %s -> %s\n"
        (List.length run.Sb_regress.Regress.cells)
        dir out;
      0
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:
         "Merge a --json run directory into one schema-tagged snapshot file \
          (the thing to check in as a CI regression baseline; see \
          docs/regress.md).")
    Term.(const action $ json_dir_arg $ out_arg)

let compare_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD"
          ~doc:
            "Baseline run: a snapshot file, a --json directory, or \
             serve:ADDR for a live benchmark service.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW"
          ~doc:
            "Candidate run: a snapshot file, a --json directory, or \
             serve:ADDR for a live benchmark service.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float (Sb_regress.Regress.default_threshold *. 100.)
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Minimum effect size in percent; smaller shifts are reported as \
             unchanged regardless of significance (host jitter on short \
             cells is typically 5-10%).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit 1 if any confirmed regression remains (the CI gate mode).")
  in
  let all_cells_arg =
    Arg.(
      value & flag
      & info [ "all-cells" ] ~doc:"Render every paired cell, not only the changed ones.")
  in
  let old_engine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "old-engine" ] ~docv:"ENGINE"
          ~doc:
            "Restrict OLD to one engine label (e.g. dbt:v1.7.0) and pair \
             cells across engine labels — compares two engine \
             configurations out of the same recorded sweep.")
  in
  let new_engine_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "new-engine" ] ~docv:"ENGINE"
          ~doc:"Restrict NEW to one engine label (see --old-engine).")
  in
  let counters_arg =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:
            "Counter gate: ignore timing and exit 1 unless both runs hold the \
             same cells and every pair has equal iterations, kernel_insns \
             and kernel_perf.  --threshold, --json, --strict and \
             --all-cells do not apply.")
  in
  let action old_path new_path threshold json strict all_cells old_engine
      new_engine counters =
    if threshold < 0. then begin
      prerr_endline "--threshold must be non-negative";
      2
    end
    else
      match (load_run old_path, load_run new_path) with
      | Error msg, _ | _, Error msg ->
        prerr_endline msg;
        2
      | Ok old_run, Ok new_run ->
        let apply_filter run = function
          | None -> run
          | Some engine -> Sb_regress.Baseline.filter_engine run engine
        in
        let old_run = apply_filter old_run old_engine in
        let new_run = apply_filter new_run new_engine in
        let ignore_engine = old_engine <> None || new_engine <> None in
        if counters then begin
          let k =
            Sb_regress.Regress.compare_counters ~ignore_engine ~old_run ~new_run ()
          in
          print_string (Sb_regress.Regress.render_counters k);
          Sb_regress.Regress.counters_exit_code k
        end
        else
          let report =
            Sb_regress.Regress.compare_runs ~threshold:(threshold /. 100.)
              ~ignore_engine ~old_run ~new_run ()
          in
          if json then
            print_endline
              (Sb_util.Json.to_string (Sb_regress.Regress.to_json report))
          else print_string (Sb_regress.Regress.render ~all_cells report);
          Sb_regress.Regress.exit_code ~strict report
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Statistically compare two recorded benchmark runs: classify every \
          paired cell as regressed / improved / unchanged using the \
          recorded repeats (t-based confidence-interval overlap plus a \
          minimum-effect threshold) and attribute shifts to mechanism \
          categories.")
    Term.(
      const action $ old_arg $ new_arg $ threshold_arg $ json_arg $ strict_arg
      $ all_cells_arg $ old_engine_arg $ new_engine_arg $ counters_arg)

(* ---- report ---- *)

let report_cmd =
  let experiments_arg =
    let names =
      List.map
        (fun (e : Sb_report.Registry.experiment) -> (e.name, e))
        Sb_report.Registry.all
    in
    Arg.(
      value
      & pos_all (enum names) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiments to run, in order: %s.  By default every one \
                except $(b,synthetic-faults) and $(b,all)."
               (String.concat ", " (List.map fst names))))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Cheap settings for a smoke run.")
  in
  let repeats_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "repeats" ] ~docv:"N"
          ~doc:
            "Timing repeats per cell (default 2, or 1 with $(b,--quick)); \
             the regression detector needs several.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:
            "Write $(docv)/BENCH_<experiment>.json per experiment with its \
             raw cells (read by $(b,baseline) and $(b,compare)).")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persist measured cells (and, with $(b,--switch-at), setup \
             checkpoints) to $(docv), keyed by a digest of the engine knobs, \
             arch, workload and iteration counts.")
  in
  let retries_arg =
    Arg.(
      value & opt non_negative_int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Re-run a crashed cell up to $(docv) times with backoff.")
  in
  let insn_budget_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "insn-budget" ] ~docv:"N"
          ~doc:
            "Watchdog: any engine run past $(docv) guest instructions stops, \
             so a runaway cell fails instead of spinning.")
  in
  let switch_arg =
    Arg.(
      value
      & opt (some switch_at_conv) None
      & info [ "switch-at" ] ~docv:"POINT"
          ~doc:
            "Checkpointed fast-forward for every grid cell: run (or \
             restore) setup up to $(docv) and start the timed engine \
             there.  Pair with $(b,--cache) to persist the warm boots.")
  in
  let action quick jobs repeats json_dir cache_dir deadline retries insn_budget
      switch_at experiments =
    Option.iter Sb_sim.Runner.set_insn_budget insn_budget;
    let config =
      if quick then Sb_report.Experiments.quick_config
      else Sb_report.Experiments.default_config
    in
    let config =
      {
        config with
        Sb_report.Experiments.repeats =
          Option.value repeats ~default:config.Sb_report.Experiments.repeats;
        switch_at;
      }
    in
    let opts = { Sb_report.Experiments.jobs; cache_dir; deadline; retries } in
    let experiments =
      if experiments <> [] then experiments
      else
        List.filter
          (fun (e : Sb_report.Registry.experiment) -> e.default)
          Sb_report.Registry.all
    in
    List.iter
      (fun (e : Sb_report.Registry.experiment) ->
        Printf.printf "=== %s ===\n%!" e.name;
        Sb_report.Experiments.reset_records ();
        let t0 = Unix.gettimeofday () in
        print_string (e.run config opts);
        Printf.printf "\n[%s generated in %.1fs]\n\n%!" e.name
          (Unix.gettimeofday () -. t0);
        Option.iter
          (fun dir ->
            let out = Filename.concat dir ("BENCH_" ^ e.name ^ ".json") in
            let rows = Sb_report.Experiments.recorded () in
            Sb_regress.Baseline.write_json ~out
              (Sb_regress.Baseline.bench_json ~run:(opts, config)
                 ~experiment:e.name
                 (List.map Sb_report.Experiments.row_to_json rows));
            Printf.printf "[wrote %s: %d cells]\n%!" out (List.length rows))
          json_dir)
      experiments;
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run the paper's tables and figures, the extension table and the \
          ablations, printing each table; with $(b,--json) also write every \
          measured cell.  See EXPERIMENTS.md.")
    Term.(
      const action $ quick_arg $ jobs_arg $ repeats_arg $ json_arg $ cache_arg
      $ deadline_arg $ retries_arg $ insn_budget_arg $ switch_arg
      $ experiments_arg)

let () =
  let doc = "SimBench: targeted micro-benchmarks for full-system simulators" in
  let info = Cmd.info "simbench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [
         list_cmd; run_cmd; suite_cmd; workload_cmd; disasm_cmd; verify_cmd;
         chaos_cmd; lint_cmd; tv_cmd; debug_cmd; report_cmd; baseline_cmd;
         compare_cmd; serve_cmd; client_cmd; fsck_cmd; chaos_proxy_cmd;
       ]))
