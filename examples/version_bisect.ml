(* The paper's motivating workflow (Section I-A): an application benchmark
   shows a performance regression between two simulator releases, but not
   *why*.  SimBench pinpoints the responsible mechanism.

     dune exec examples/version_bisect.exe

   Step 1 reproduces the mystery: a workload got slower between v1.7.0 and
   v2.5.0-rc2, and the aggregate number explains nothing.
   Step 2 runs one SimBench benchmark per category across the releases and
   reports which *mechanisms* regressed — turning "mcf got slower" into
   "memory helpers and exception handling regressed; data-fault handling
   improved at v2.5.0-rc0". *)

let arch = Sb_isa.Arch_sig.Sba
let support = Simbench.Engines.support arch

let versions = [ "v1.7.0"; "v2.0.0"; "v2.2.0"; "v2.4.0"; "v2.5.0-rc2" ]

let () =
  (* Step 1: the application-level mystery *)
  let best_of n f =
    let rec go best k = if k = 0 then best else go (min best (f ())) (k - 1) in
    go (f ()) (n - 1)
  in
  let mcf = Sb_workloads.Workloads.mcf in
  let time_workload version =
    let engine = Simbench.Engines.dbt_version arch version in
    best_of 3 (fun () ->
        (Sb_workloads.Workloads.run ~iters:120 ~support ~engine mcf)
          .Simbench.Harness.kernel_seconds)
  in
  let times = List.map (fun v -> (v, time_workload v)) versions in
  let first = List.assoc (List.hd versions) times in
  print_endline "Step 1: the application benchmark only says *that* it changed:";
  List.iter
    (fun (v, t) ->
      Printf.printf "  mcf on %-12s %.3fs (%.2fx vs %s)\n" v t (first /. t)
        (List.hd versions))
    times;
  print_newline ();
  (* Step 2: SimBench says *what* changed *)
  let probes =
    [
      Simbench.Suite.large_blocks;
      Simbench.Suite.intra_page_direct;
      Simbench.Suite.data_access_fault;
      Simbench.Suite.system_call;
      Simbench.Suite.memory_mapped_device;
      Simbench.Suite.cold_memory_access;
      Simbench.Suite.tlb_flush;
    ]
  in
  let time_bench version bench =
    let engine = Simbench.Engines.dbt_version arch version in
    best_of 3 (fun () ->
        (Simbench.Harness.run ~scale:2_000 ~support ~engine bench)
          .Simbench.Harness.kernel_seconds)
  in
  print_endline "Step 2: SimBench pinpoints the mechanisms (speedup vs v1.7.0):";
  let rows =
    List.map
      (fun bench ->
        let base = time_bench (List.hd versions) bench in
        bench.Simbench.Bench.name
        :: List.map
             (fun v -> Printf.sprintf "%.2f" (base /. time_bench v bench))
             versions)
      probes
  in
  print_string (Sb_util.Tablefmt.render ~header:("Benchmark" :: versions) rows);
  print_newline ();
  print_endline
    "Reading: Cold Memory / TLB data degrade steadily (memory-helper and walk\n\
     complexity growth) while Data Access Fault jumps at v2.5.0-rc0 — exactly\n\
     the per-mechanism story the aggregate mcf number hides."
