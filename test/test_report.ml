(* Tests for the experiment/reporting layer (quick configuration). *)

let config = Sb_report.Experiments.quick_config

let contains haystack needle =
  let n = String.length needle in
  let rec loop i =
    if i + n > String.length haystack then false
    else String.sub haystack i n = needle || loop (i + 1)
  in
  loop 0

let test_spec_density () =
  let d = Sb_report.Spec_density.measure ~iters:6 () in
  Alcotest.(check bool) "instructions counted" true (Sb_report.Spec_density.insns d > 10_000);
  let density name = Sb_report.Spec_density.density d ~bench_name:name in
  (* structurally required relations on the aggregated workload stream *)
  Alcotest.(check bool) "intra direct common" true (density "Intra-Page Direct" > 0.01);
  Alcotest.(check bool) "undef never occurs" true (density "Undefined Instruction" = 0.);
  Alcotest.(check bool) "tlb flush never occurs" true (density "TLB Flush" = 0.);
  Alcotest.(check bool) "syscalls rare but present" true
    (density "System Call" > 0. && density "System Call" < 0.001);
  Alcotest.(check bool) "faults present (paging)" true (density "Data Access Fault" > 0.);
  Alcotest.(check bool) "irqs present (timer)" true
    (density "External Software Interrupt" > 0.);
  Alcotest.(check bool) "io present (console)" true (density "Memory Mapped Device" > 0.);
  Alcotest.(check bool) "unknown name is nan" true
    (Float.is_nan (density "No Such Benchmark"))

let test_fig3_structure () =
  let out = Sb_report.Experiments.fig3 ~config () in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Simbench.Bench.name ^ " row present")
        true
        (contains out b.Simbench.Bench.name))
    Simbench.Suite.all;
  Alcotest.(check bool) "dagger marker" true (contains out "+")

let test_fig4_structure () =
  let out = Sb_report.Experiments.fig4 () in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " column") true (contains out name))
    [ "QEMU-DBT"; "SimIt-ARM"; "Gem5"; "QEMU-KVM"; "Hardware" ];
  Alcotest.(check bool) "DBT row" true (contains out "Threaded Code");
  Alcotest.(check bool) "KVM hypercall" true (contains out "Hypercall")

let test_fig5_structure () =
  let out = Sb_report.Experiments.fig5 () in
  Alcotest.(check bool) "mentions OCaml host" true (contains out "OCaml")

let test_fig2_and_8_structure () =
  let out = Sb_report.Experiments.fig2 ~config () in
  Alcotest.(check bool) "sjeng series" true (contains out "sjeng");
  Alcotest.(check bool) "mcf series" true (contains out "mcf");
  Alcotest.(check bool) "all versions" true
    (List.for_all (fun v -> contains out v) Sb_dbt.Version.names);
  Alcotest.(check bool) "baseline row is 1.000" true (contains out "1.000");
  let out8 = Sb_report.Experiments.fig8 ~config () in
  Alcotest.(check bool) "SPEC series" true (contains out8 "SPEC");
  Alcotest.(check bool) "SimBench series" true (contains out8 "SimBench")

let test_suite_times_memoized () =
  let arch = Sb_isa.Arch_sig.Sba in
  List.iter
    (fun column ->
      let rows () =
        List.hd (Sb_report.Experiments.columns ~config [ column ])
      in
      let t0 = Unix.gettimeofday () in
      let a = rows () in
      let first = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let b = rows () in
      let second = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "same data" true (a == b);
      Alcotest.(check bool) "memo hit is instant" true (second < first /. 2. || second < 0.001);
      Alcotest.(check int) "covers the suite" 18 (List.length a))
    [
      Sb_report.Experiments.version_column ~arch Sb_report.Experiments.suite_cells
        Sb_dbt.Config.baseline;
      List.hd
        (Sb_report.Experiments.paper_columns ~tag:"fig7" ~arch
           Sb_report.Experiments.suite_cells);
    ]

let experiment name =
  match
    List.find_opt
      (fun (e : Sb_report.Registry.experiment) -> e.name = name)
      Sb_report.Registry.all
  with
  | Some e -> e
  | None -> Alcotest.failf "%s is not in the registry" name

let test_registry () =
  let names =
    List.map (fun (e : Sb_report.Registry.experiment) -> e.name)
  in
  let all = names Sb_report.Registry.all in
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  Alcotest.(check (list string))
    "registry order"
    ([ "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "ext" ]
    @ List.map
        (fun (s : Sb_report.Ablations.spec) -> s.name)
        Sb_report.Ablations.all
    @ [ "synthetic-faults"; "all" ])
    all;
  Alcotest.(check (list string))
    "a bare report skips synthetic-faults and all"
    (List.filter (fun n -> n <> "synthetic-faults" && n <> "all") all)
    (names
       (List.filter
          (fun (e : Sb_report.Registry.experiment) -> e.default)
          Sb_report.Registry.all))

let test_ablation_table () =
  let out = (experiment "abl-chain").run config Sb_report.Experiments.sequential in
  let lines = String.split_on_char '\n' out in
  List.iter
    (fun v -> Alcotest.(check bool) (v ^ " column") true (contains out v))
    [ "no-chain"; "chain+cross-page" ];
  List.iter
    (fun b ->
      let name = b.Simbench.Bench.name in
      match List.find_opt (String.starts_with ~prefix:name) lines with
      | None -> Alcotest.fail (name ^ " row missing")
      | Some line ->
        let cells =
          String.sub line (String.length name)
            (String.length line - String.length name)
          |> String.split_on_char ' '
          |> List.filter (( <> ) "")
        in
        Alcotest.(check int) (name ^ ": a cell per variant") 3 (List.length cells);
        List.iter
          (fun c ->
            (* a lost column renders as "-" *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S is a measured time" name c)
              true
              (match float_of_string_opt c with
              | Some t -> Float.is_finite t && t >= 0.
              | None -> false))
          cells)
    Simbench.Suite.
      [
        intra_page_direct;
        intra_page_indirect;
        inter_page_direct;
        inter_page_indirect;
      ]

(* every ablation cell reaches --json: one row per bench and column, each
   labelled with its experiment and column *)
let test_ablation_rows () =
  let spec =
    List.find
      (fun (s : Sb_report.Ablations.spec) -> s.name = "abl-traces")
      Sb_report.Ablations.all
  in
  Sb_report.Experiments.reset_records ();
  ignore ((experiment "abl-traces").run config Sb_report.Experiments.sequential);
  let rows = Sb_report.Experiments.recorded () in
  Alcotest.(check int) "benches x columns rows"
    (List.length spec.benches * List.length spec.variants)
    (List.length rows);
  List.iter
    (fun (label, _) ->
      List.iter
        (fun b ->
          let engine = "abl-traces:" ^ label in
          match
            List.find_opt
              (fun (r : Sb_report.Experiments.row) ->
                r.row_engine = engine && r.row_cell = b.Simbench.Bench.name)
              rows
          with
          | None -> Alcotest.failf "no row for %s / %s" engine b.Simbench.Bench.name
          | Some r ->
            Alcotest.(check string) (engine ^ " status") "ok" r.row_status;
            Alcotest.(check bool) (engine ^ " kernel_insns") true
              (r.row_kernel_insns > 0))
        spec.benches)
    spec.variants

(* ablation columns carry no key: with a cache directory and a switch
   point they still run cold, leave no cache entry or checkpoint behind,
   and measure afresh on every sweep *)
let test_ablations_uncached () =
  let spec =
    List.find
      (fun (s : Sb_report.Ablations.spec) -> s.name = "abl-predecode")
      Sb_report.Ablations.all
  in
  let dir = Filename.temp_dir "sb_report_abl" "" in
  let opts =
    { Sb_report.Experiments.sequential with cache_dir = Some dir }
  in
  let config =
    { config with switch_at = Some Simbench.Checkpoint.Kernel_phase }
  in
  let sweep () =
    Sb_report.Experiments.reset_records ();
    ignore (Sb_report.Ablations.sweep ~opts ~config spec);
    Sb_report.Experiments.recorded ()
  in
  let first = sweep () in
  let second = sweep () in
  let entries = Array.to_list (Sys.readdir dir) in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) entries;
  Sys.rmdir dir;
  Alcotest.(check (list string)) "no cache entry or checkpoint" []
    (List.filter (String.starts_with ~prefix:"sb_") entries);
  Alcotest.(check int) "benches x columns rows"
    (List.length spec.benches * List.length spec.variants)
    (List.length second);
  List.iter2
    (fun (a : Sb_report.Experiments.row) b ->
      Alcotest.(check bool) (a.row_engine ^ " measured again") true (a != b))
    first second

let () =
  Alcotest.run "sb_report"
    [
      ( "density",
        [ Alcotest.test_case "spec densities" `Quick test_spec_density ] );
      ( "figures",
        [
          Alcotest.test_case "fig3" `Quick test_fig3_structure;
          Alcotest.test_case "fig4" `Quick test_fig4_structure;
          Alcotest.test_case "fig5" `Quick test_fig5_structure;
          Alcotest.test_case "fig2/fig8" `Quick test_fig2_and_8_structure;
          Alcotest.test_case "memoization" `Quick test_suite_times_memoized;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "chaining table" `Quick test_ablation_table;
          Alcotest.test_case "rows are recorded" `Quick test_ablation_rows;
          Alcotest.test_case "never cached, always cold" `Quick
            test_ablations_uncached;
        ] );
      ( "experiment-registry",
        [ Alcotest.test_case "names and defaults" `Quick test_registry ] );
    ]
