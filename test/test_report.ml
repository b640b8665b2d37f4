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
  let t0 = Unix.gettimeofday () in
  let a =
    Sb_report.Experiments.suite_times_for_version ~arch:Sb_isa.Arch_sig.Sba ~config
      Sb_dbt.Config.baseline
  in
  let first = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let b =
    Sb_report.Experiments.suite_times_for_version ~arch:Sb_isa.Arch_sig.Sba ~config
      Sb_dbt.Config.baseline
  in
  let second = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "same data" true (a == b);
  Alcotest.(check bool) "memo hit is instant" true (second < first /. 2. || second < 0.001);
  Alcotest.(check int) "covers the suite" 18 (List.length a)

let test_ablation_table () =
  let out = Sb_report.Ablations.chaining ~config () in
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
        [ Alcotest.test_case "chaining table" `Quick test_ablation_table ] );
    ]
