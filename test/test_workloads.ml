(* Tests for the SPEC-analog workloads: completion on every engine,
   cross-engine agreement, and the signature properties the paper's
   experiments rely on (differing operation mixes). *)

module Perf = Sb_sim.Perf
module W = Sb_workloads.Workloads
module Target = Sb_workloads.Target

let engines arch =
  [
    ("interp", Simbench.Engines.interp arch);
    ("dbt", Simbench.Engines.dbt arch);
    ("detailed", Simbench.Engines.detailed arch);
    ("virt", Simbench.Engines.virt arch);
    ("native", Simbench.Engines.native arch);
  ]

let run ~arch ~engine ?(iters = 3) bench =
  Simbench.Harness.run ~iters ~support:(Simbench.Engines.support arch) ~engine
    bench

let named name = Result.get_ok (Target.find name)

let test_workload_all_engines arch w () =
  let support = Simbench.Engines.support arch in
  let outcomes =
    List.map
      (fun (l, e) -> (l, W.run ~iters:3 ~support ~engine:e w))
      (engines arch)
  in
  let insns =
    List.map (fun (_, o) -> Sb_sim.Run_result.insns o.Simbench.Harness.result) outcomes
  in
  List.iter
    (fun (label, o) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s ran" w.W.name label)
        true
        (o.Simbench.Harness.kernel_insns > 100))
    outcomes;
  Alcotest.(check bool)
    (w.W.name ^ " whole-run instruction counts agree across engines")
    true
    (List.for_all (fun i -> i = List.hd insns) insns)

let workload_cases arch =
  List.map
    (fun w -> Alcotest.test_case w.W.name `Quick (test_workload_all_engines arch w))
    W.all

let kernel_counter name c =
  let arch = Sb_isa.Arch_sig.Sba in
  let o =
    run ~arch ~engine:(Simbench.Engines.interp arch) ~iters:4 (named name)
  in
  ( Perf.get (Option.get o.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf) c,
    o.Simbench.Harness.kernel_insns )

let ratio name c =
  let ops, insns = kernel_counter name c in
  float_of_int ops /. float_of_int insns

let test_registry () =
  Alcotest.(check int) "twelve workloads" 12 (List.length W.all);
  List.iter
    (fun w ->
      Alcotest.(check bool) (w.W.name ^ " weight") true (w.W.weight > 0.);
      Alcotest.(check bool)
        (w.W.name ^ " models a SPEC program")
        true
        (String.contains w.W.spec_name '.'))
    W.all

let test_signatures () =
  (* mcf is TLB-hostile; sjeng is not *)
  let mcf_miss = ratio "mcf" Perf.Tlb_miss in
  let sjeng_miss = ratio "sjeng" Perf.Tlb_miss in
  Alcotest.(check bool)
    (Printf.sprintf "mcf misses TLB more (%.4f vs %.4f)" mcf_miss sjeng_miss)
    true
    (mcf_miss > 10. *. sjeng_miss);
  (* sjeng is branch-heavy *)
  let sjeng_br = ratio "sjeng" Perf.Branch_direct in
  let lq_br = ratio "libquantum" Perf.Branch_direct in
  Alcotest.(check bool) "sjeng branchier than libquantum" true (sjeng_br > lq_br);
  (* h264 is load/store heavy *)
  let h264_mem = ratio "h264ref" Perf.Loads in
  let sjeng_mem = ratio "sjeng" Perf.Loads in
  Alcotest.(check bool) "h264 more memory traffic" true (h264_mem > sjeng_mem);
  (* perlbench performs system calls and console I/O *)
  let svc, _ = kernel_counter "perlbench" Perf.Svc_taken in
  Alcotest.(check bool) "perl syscalls" true (svc >= 4);
  let io, _ = kernel_counter "perlbench" Perf.Io_writes in
  Alcotest.(check bool) "perl console output" true (io >= 4);
  (* gcc and perlbench drive indirect control flow *)
  let gcc_ind = ratio "gcc" Perf.Branch_indirect in
  let lq_ind = ratio "libquantum" Perf.Branch_indirect in
  Alcotest.(check bool) "gcc indirect-heavy" true (gcc_ind > lq_ind);
  (* omnetpp takes timer interrupts (longer run: the timer period must
     elapse inside the kernel phase) *)
  let o =
    run ~arch:Sb_isa.Arch_sig.Sba
      ~engine:(Simbench.Engines.interp Sb_isa.Arch_sig.Sba)
      ~iters:16 (named "omnetpp")
  in
  let irqs =
    Perf.get
      (Option.get o.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf)
      Perf.Irq_taken
  in
  Alcotest.(check bool) "omnetpp timer irqs" true (irqs >= 1);
  (* mcf suffers paging events *)
  let faults, _ = kernel_counter "mcf" Perf.Data_abort in
  Alcotest.(check bool) "mcf paging" true (faults >= 4)

(* one namespace: the suite, the extension suite, then the workloads, as
   [simbench list] prints them, each found under any case *)
let test_namespace_order () =
  let names bs = List.map (fun b -> b.Simbench.Bench.name) bs in
  Alcotest.(check (list string))
    "suite, extension suite, workloads"
    (names Simbench.Suite.all @ names Simbench.Suite_ext.all
    @ List.map (fun w -> w.W.name) W.all)
    (names Target.all);
  Alcotest.(check int) "34 names" 34 (List.length Target.all);
  Alcotest.(check int) "unique ignoring case" 34
    (List.length
       (List.sort_uniq compare
          (List.map String.lowercase_ascii (names Target.all))))

let test_namespace_find () =
  List.iter
    (fun b ->
      let name = b.Simbench.Bench.name in
      List.iter
        (fun spelling ->
          match Target.find spelling with
          | Ok found ->
            Alcotest.(check bool) (spelling ^ " is " ^ name) true (found == b)
          | Error msg -> Alcotest.fail msg)
        [ name; String.lowercase_ascii name; String.uppercase_ascii name ])
    Target.all;
  match Target.find "nonesuch" with
  | Ok _ -> Alcotest.fail "nonesuch resolved"
  | Error msg ->
    Alcotest.(check string) "error names the spelling"
      "unknown benchmark or workload \"nonesuch\"" msg

let test_vlx_port () =
  (* the same workload sources run on the second ISA *)
  let arch = Sb_isa.Arch_sig.Vlx in
  List.iter
    (fun w ->
      let o =
        run ~arch ~engine:(Simbench.Engines.interp arch) ~iters:2 w.W.bench
      in
      Alcotest.(check bool) (w.W.name ^ " on vlx") true
        (o.Simbench.Harness.kernel_insns > 100))
    W.all

let () =
  Alcotest.run "sb_workloads"
    [
      ("engines-sba", workload_cases Sb_isa.Arch_sig.Sba);
      ( "properties",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "signatures" `Quick test_signatures;
          Alcotest.test_case "vlx port" `Quick test_vlx_port;
          Alcotest.test_case "namespace order" `Quick test_namespace_order;
          Alcotest.test_case "namespace ignores case" `Quick test_namespace_find;
        ] );
    ]
