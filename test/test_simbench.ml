(* Integration tests for the SimBench suite itself: every benchmark runs to
   completion on every engine and both guest ISAs, and its perf counters
   prove the targeted operation actually happened at the advertised rate. *)

module Perf = Sb_sim.Perf
module H = Simbench.Harness

let scale = 400_000 (* tiny iteration counts: correctness, not timing *)

let get o c = Perf.get (Option.get o.H.result.Sb_sim.Run_result.kernel_perf) c

let run ~arch ~engine bench =
  let support = Simbench.Engines.support arch in
  H.run ~scale ~support ~engine bench

(* counter expectations per benchmark: at least [iters] tested operations
   must land in the kernel phase *)
let expectation ~arch ~engine_label bench_name (o : H.outcome) =
  let iters = o.H.iters in
  let at_least c n = get o c >= n in
  match bench_name with
  | "Small Blocks" | "Large Blocks" ->
    if engine_label = "detailed" then
      (* the detailed model re-decodes every instruction and caches no
         translations, so there is nothing to invalidate; the rewrites still
         happen as stores *)
      at_least Perf.Stores iters
    else
      (* the first iteration rewrites code that has never been executed, so
         there is nothing cached to invalidate yet *)
      at_least Perf.Smc_invalidations (iters - 1)
  | "Inter-Page Direct" | "Inter-Page Indirect" | "Intra-Page Direct"
  | "Intra-Page Indirect" ->
    at_least Perf.Branch_taken (iters * Simbench.Suite.inter_page_direct.Simbench.Bench.ops_per_iter)
  | "Data Access Fault" -> at_least Perf.Data_abort iters
  | "Instruction Access Fault" -> at_least Perf.Prefetch_abort iters
  | "Undefined Instruction" -> at_least Perf.Undef_insn iters
  | "System Call" -> at_least Perf.Svc_taken iters
  | "External Software Interrupt" -> at_least Perf.Irq_taken iters
  | "Memory Mapped Device" -> at_least Perf.Io_reads (4 * iters)
  | "Coprocessor Access" -> (
    match arch with
    | Sb_isa.Arch_sig.Sba -> at_least Perf.Cop_reads (4 * iters)
    | Sb_isa.Arch_sig.Vlx -> at_least Perf.Cop_writes (4 * iters))
  | "Cold Memory Access" -> at_least Perf.Loads (iters * 2048)
  | "Hot Memory Access" -> at_least Perf.Loads (iters * 16)
  | "Nonprivileged Access" -> (
    match arch with
    | Sb_isa.Arch_sig.Sba -> at_least Perf.User_accesses (16 * iters)
    | Sb_isa.Arch_sig.Vlx -> get o Perf.User_accesses = 0)
  | "TLB Eviction" -> at_least Perf.Tlb_inv_page_ops iters
  | "TLB Flush" -> at_least Perf.Tlb_flush_ops iters
  | _ -> false

let engines_for arch =
  [
    ("interp", Simbench.Engines.interp arch);
    ("dbt", Simbench.Engines.dbt arch);
    ("detailed", Simbench.Engines.detailed arch);
    ("virt", Simbench.Engines.virt arch);
    ("native", Simbench.Engines.native arch);
  ]

let test_bench_on_engines arch bench () =
  List.iter
    (fun (label, engine) ->
      let o = run ~arch ~engine bench in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s tested op happened" bench.Simbench.Bench.name label)
        true
        (expectation ~arch ~engine_label:label bench.Simbench.Bench.name o);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s kernel time measured" bench.Simbench.Bench.name label)
        true (o.H.kernel_seconds >= 0.);
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s kernel insns positive" bench.Simbench.Bench.name label)
        true (o.H.kernel_insns > 0))
    (engines_for arch)

let suite_cases arch =
  List.map
    (fun bench ->
      Alcotest.test_case bench.Simbench.Bench.name `Quick
        (test_bench_on_engines arch bench))
    Simbench.Suite.all

(* ------------------------------------------------------------------ *)

let test_suite_registry () =
  Alcotest.(check int) "eighteen benchmarks" 18 (List.length Simbench.Suite.all);
  Alcotest.(check int) "five categories" 5 (List.length Simbench.Category.all);
  List.iter
    (fun category ->
      Alcotest.(check bool)
        (Simbench.Category.name category ^ " non-empty")
        true
        (Simbench.Suite.by_category category <> []))
    Simbench.Category.all;
  Alcotest.(check bool) "find by name" true (Simbench.Suite.find "small blocks" <> None);
  Alcotest.(check bool) "daggers present" true
    (List.exists (fun b -> b.Simbench.Bench.platform_specific) Simbench.Suite.all)

let test_default_iters_match_paper () =
  let expect =
    [
      ("Small Blocks", 100_000);
      ("Large Blocks", 500_000);
      ("Inter-Page Direct", 100_000_000);
      ("Inter-Page Indirect", 250_000);
      ("Intra-Page Direct", 500_000_000);
      ("Intra-Page Indirect", 200_000);
      ("Data Access Fault", 25_000_000);
      ("Instruction Access Fault", 25_000_000);
      ("Undefined Instruction", 50_000_000);
      ("System Call", 50_000_000);
      ("External Software Interrupt", 20_000_000);
      ("Memory Mapped Device", 400_000_000);
      ("Coprocessor Access", 250_000_000);
    ]
  in
  List.iter
    (fun (name, iters) ->
      match Simbench.Suite.find name with
      | Some b -> Alcotest.(check int) name iters b.Simbench.Bench.default_iters
      | None -> Alcotest.failf "missing %s" name)
    expect

let test_harness_scaling () =
  let arch = Sb_isa.Arch_sig.Sba in
  let o =
    H.run ~scale:10_000_000
      ~support:(Simbench.Engines.support arch)
      ~engine:(Simbench.Engines.interp arch)
      Simbench.Suite.system_call
  in
  Alcotest.(check int) "floor of 10 iterations" 10 o.H.iters;
  let o =
    H.run ~iters:25
      ~support:(Simbench.Engines.support arch)
      ~engine:(Simbench.Engines.interp arch)
      Simbench.Suite.system_call
  in
  Alcotest.(check int) "explicit iters" 25 o.H.iters;
  Alcotest.(check int) "tested ops follow iters" 25 o.H.tested_ops;
  (* without iters, a workload runs its 40 passes at any scale and a
     suite bench its Figure 3 count divided by the scale, at least 10 *)
  let iters_at scale bench =
    (H.run ~scale
       ~support:(Simbench.Engines.support arch)
       ~engine:(Simbench.Engines.interp arch)
       bench)
      .H.iters
  in
  let mcf = Sb_workloads.Workloads.mcf.Sb_workloads.Workloads.bench in
  List.iter
    (fun scale ->
      Alcotest.(check int) (Printf.sprintf "mcf at scale %d" scale) 40
        (iters_at scale mcf))
    [ 1; 2_000; 100_000 ];
  List.iter
    (fun (scale, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "Small Blocks at scale %d" scale)
        expect
        (iters_at scale Simbench.Suite.small_blocks);
      Alcotest.(check int)
        (Printf.sprintf "the rule at scale %d" scale)
        expect
        (H.default_iters ~scale Simbench.Suite.small_blocks))
    [ (2_000, 50); (100_000, 10) ]

let test_density_positive () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let engine = Simbench.Engines.interp arch in
  List.iter
    (fun bench ->
      let o = H.run ~scale ~support ~engine bench in
      let d = H.density o in
      Alcotest.(check bool)
        (bench.Simbench.Bench.name ^ " density in (0, 1]")
        true
        (d > 0. && d <= 1.))
    Simbench.Suite.all

let test_page_table_runtime () =
  (* the generated table-builder must produce exactly the mappings the
     walker expects: run any benchmark, then inspect guest RAM *)
  let arch = Sb_isa.Arch_sig.Sba in
  let p = Simbench.Platform.sbp_ref in
  let machine = Simbench.Platform.machine p () in
  Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev 10;
  let program =
    Simbench.Rt.program
      ~support:(Simbench.Engines.support arch)
      ~platform:p ~bench:Simbench.Suite.system_call
  in
  Sb_sim.Machine.load_program machine program;
  let result =
    Sb_sim.Engine.run (Simbench.Engines.interp arch) ~max_insns:10_000_000 machine
  in
  Alcotest.(check bool) "completed" true
    (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
  let ram = Sb_mem.Bus.ram machine.Sb_sim.Machine.bus in
  let read32 = Sb_mem.Phys_mem.read32 ram in
  let ttbr = p.Simbench.Platform.page_table_base in
  (* identity section for RAM base *)
  (match Sb_mmu.Walker.walk ~read32 ~ttbr ~va:0x1234 with
  | Ok m ->
    Alcotest.(check int) "identity" 0x1000 m.Sb_mmu.Walker.pa_page;
    Alcotest.(check bool) "one level" true m.Sb_mmu.Walker.from_section
  | Error _ -> Alcotest.fail "RAM must be mapped");
  (* device section *)
  (match Sb_mmu.Walker.walk ~read32 ~ttbr ~va:p.Simbench.Platform.uart_base with
  | Ok m -> Alcotest.(check bool) "device xn" true m.Sb_mmu.Walker.xn
  | Error _ -> Alcotest.fail "devices must be mapped");
  (* cold region: two-level, aliasing scratch *)
  (match
     Sb_mmu.Walker.walk ~read32 ~ttbr ~va:p.Simbench.Platform.cold_region_va
   with
  | Ok m ->
    Alcotest.(check bool) "two level" true (m.Sb_mmu.Walker.levels = 2);
    Alcotest.(check int) "aliases scratch" p.Simbench.Platform.scratch_base
      m.Sb_mmu.Walker.pa_page
  | Error _ -> Alcotest.fail "cold region must be mapped");
  (* wrap-around aliasing within the cold region *)
  (match
     Sb_mmu.Walker.walk ~read32 ~ttbr
       ~va:
         (p.Simbench.Platform.cold_region_va
         + (p.Simbench.Platform.scratch_pages * 4096))
   with
  | Ok m ->
    Alcotest.(check int) "alias wraps" p.Simbench.Platform.scratch_base
      m.Sb_mmu.Walker.pa_page
  | Error _ -> Alcotest.fail "cold region page must be mapped");
  (* user page is user-accessible *)
  (match
     Sb_mmu.Walker.translate ~read32 ~ttbr ~va:p.Simbench.Platform.user_page_va
       ~kind:Sb_mmu.Access.Read ~priv:Sb_mmu.Access.User
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "user page must be user-readable");
  (* fault va really is unmapped *)
  match Sb_mmu.Walker.walk ~read32 ~ttbr ~va:p.Simbench.Platform.fault_va with
  | Error Sb_mmu.Access.Translation -> ()
  | _ -> Alcotest.fail "fault va must be unmapped"

(* ---- boot: the stub at _start writes the cold region's L2 entries and
   jumps to the inline boot at rt_main ---- *)

let arches = [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]

let case_name arch (p : Simbench.Platform.t) =
  Printf.sprintf "%s on %s" (Sb_isa.Arch_sig.arch_id_name arch)
    p.Simbench.Platform.name

let boot_program arch platform bench =
  Simbench.Rt.program ~support:(Simbench.Engines.support arch) ~platform ~bench

(* Run System Call's image on [arch]'s interpreter from [pc] (default: the
   entry) to its kernel-phase write; the machine and the instructions
   retired on the way. *)
let boot_to_kernel ?pc arch platform =
  let program = boot_program arch platform Simbench.Suite.system_call in
  let machine = Simbench.Platform.machine platform () in
  Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev 10;
  Sb_sim.Machine.load_program machine program;
  Option.iter
    (fun label ->
      machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.pc <-
        Sb_asm.Program.symbol program label)
    pc;
  let snap =
    Simbench.Checkpoint.run_to_point
      ~setup_engine:(Simbench.Engines.interp arch)
      ~point:Simbench.Checkpoint.Kernel_phase machine
  in
  (machine, Sb_sim.Snapshot.insns snap)

(* The L1 table and every cold-region L2 entry at the kernel-phase write,
   against values computed from the platform; the mismatching slots. *)
let boot_table_mismatches machine (p : Simbench.Platform.t) =
  let module P = Simbench.Platform in
  let module Pte = Sb_mmu.Pte in
  let read32 = Sb_mem.Phys_mem.read32 (Sb_mem.Bus.ram machine.Sb_sim.Machine.bus) in
  let kernel = Sb_mmu.Access.Ap.kernel_only in
  let section = 1 lsl Pte.section_shift in
  let l2 = p.P.l2_table_base in
  let l2_tables = (p.P.cold_region_pages + 1023) / 1024 in
  let l1 = Array.make 1024 Pte.invalid in
  let set va v = l1.(Pte.l1_index va) <- v in
  for i = 0 to ((p.P.ram_size + section - 1) / section) - 1 do
    set (i * section) (Pte.encode_section ~pa_base:(i * section) ~ap:kernel ~xn:false)
  done;
  set p.P.device_section_va
    (Pte.encode_section ~pa_base:p.P.device_section_va ~ap:kernel ~xn:true);
  for i = 0 to l2_tables - 1 do
    set (p.P.cold_region_va + (i * section)) (Pte.encode_table ~l2_base:(l2 + (i * 4096)))
  done;
  set p.P.user_page_va (Pte.encode_table ~l2_base:(l2 + (l2_tables * 4096)));
  let bad = ref [] in
  let check what addr want =
    let got = read32 addr in
    if got <> want then
      bad := Printf.sprintf "%s at 0x%x: 0x%x, want 0x%x" what addr got want :: !bad
  in
  Array.iteri (fun i want -> check "L1" (p.P.page_table_base + (4 * i)) want) l1;
  for i = 0 to p.P.cold_region_pages - 1 do
    check "cold L2" (l2 + (4 * i))
      (Pte.encode_page
         ~pa_base:(p.P.scratch_base + (i mod p.P.scratch_pages * 4096))
         ~ap:kernel ~xn:true)
  done;
  List.rev !bad

(* examples/port_new_platform.ml's board: a 512-byte stride puts the
   stub's later stores past SBA's 14-bit offset field *)
let sbp_big =
  {
    Simbench.Platform.sbp_ref with
    Simbench.Platform.name = "sbp-big";
    ram_size = 64 * 1024 * 1024;
    cold_region_pages = 4096;
    scratch_pages = 128;
    scratch_base = 0x0200_0000;
    heap_base = 0x0280_0000;
  }

let test_boot_tables () =
  List.iter
    (fun arch ->
      List.iter
        (fun p ->
          let machine, _ = boot_to_kernel arch p in
          Alcotest.(check (list string)) (case_name arch p) []
            (boot_table_mismatches machine p))
        (Simbench.Platform.all @ [ sbp_big ]))
    arches

let test_boot_cost () =
  List.iter
    (fun arch ->
      let p = Simbench.Platform.sbp_ref in
      let _, insns = boot_to_kernel arch p in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d setup instructions < 3000" (case_name arch p) insns)
        true (insns < 3000))
    arches

(* The stub is the image's last code, alone on a page: a page it shared
   with code that a kernel rewrites would be marked as code during setup. *)
let test_boot_stub_page () =
  List.iter
    (fun arch ->
      List.iter
        (fun bench ->
          let program = boot_program arch Simbench.Platform.sbp_ref bench in
          let stub = Sb_asm.Program.symbol program "_start" in
          let image_end =
            program.Sb_asm.Program.base + Bytes.length program.Sb_asm.Program.image
          in
          let what = Printf.sprintf "%s on %s" bench.Simbench.Bench.name
              (Sb_isa.Arch_sig.arch_id_name arch) in
          Alcotest.(check int) (what ^ ": entry") stub program.Sb_asm.Program.entry;
          Alcotest.(check int) (what ^ ": page aligned") 0 (stub land 4095);
          Alcotest.(check bool) (what ^ ": after the inline boot") true
            (stub > Sb_asm.Program.symbol program "rt_main");
          Alcotest.(check bool) (what ^ ": ends the image within its page") true
            (image_end > stub && image_end <= stub + 4096);
          List.iter
            (fun (label, addr) ->
              if addr >= stub && label <> "_start" && label <> "rt_stub_fill"
              then Alcotest.failf "%s: label %s at 0x%x on the stub's page" what label addr)
            program.Sb_asm.Program.symbols)
        Sb_workloads.Target.all)
    arches

(* Reset vectors to the stub: two jumps from the Reset slot land on it,
   past the inline boot, and a boot from there retires exactly those two
   jumps more than one from the entry. *)
let test_reset_reenters_stub () =
  List.iter
    (fun arch ->
      let p = Simbench.Platform.sbp_ref in
      let program = boot_program arch p Simbench.Suite.system_call in
      let machine = Simbench.Platform.machine p () in
      Sb_sim.Machine.load_program machine program;
      let cpu = machine.Sb_sim.Machine.cpu in
      cpu.Sb_sim.Cpu.pc <- Sb_asm.Program.symbol program "rt_vec_reset";
      ignore
        (Sb_sim.Engine.run (Simbench.Engines.interp arch) ~max_insns:2 machine);
      Alcotest.(check int) (case_name arch p ^ ": lands on _start")
        (Sb_asm.Program.symbol program "_start") cpu.Sb_sim.Cpu.pc;
      Alcotest.(check bool) (case_name arch p ^ ": past the inline boot") true
        (cpu.Sb_sim.Cpu.pc > program.Sb_asm.Program.base);
      let _, cold = boot_to_kernel arch p in
      let machine, from_reset = boot_to_kernel ~pc:"rt_vec_reset" arch p in
      Alcotest.(check int) (case_name arch p ^ ": insns") (cold + 2) from_reset;
      Alcotest.(check (list string)) (case_name arch p ^ ": tables") []
        (boot_table_mismatches machine p))
    arches

let test_sbp_mini_platform () =
  (* the whole suite must run unmodified on the constrained board *)
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let engine = Simbench.Engines.interp arch in
  List.iter
    (fun bench ->
      let o =
        H.run ~platform:Simbench.Platform.sbp_mini ~scale ~support ~engine bench
      in
      Alcotest.(check bool)
        (bench.Simbench.Bench.name ^ " on sbp-mini")
        true
        (o.H.kernel_insns > 0))
    Simbench.Suite.all;
  (* the cold benchmark really saw the smaller region *)
  let o =
    H.run ~platform:Simbench.Platform.sbp_mini ~iters:2 ~support ~engine
      Simbench.Suite.cold_memory_access
  in
  let loads = get o Perf.Loads in
  Alcotest.(check bool)
    (Printf.sprintf "quarter-size region (%d loads)" loads)
    true
    (loads >= 2 * 512 && loads < 2 * 600)

let test_support_constants () =
  let (module Sba : Simbench.Support.SUPPORT) =
    Simbench.Engines.support Sb_isa.Arch_sig.Sba
  in
  let (module Vlx : Simbench.Support.SUPPORT) =
    Simbench.Engines.support Sb_isa.Arch_sig.Vlx
  in
  Alcotest.(check bool) "sba nonpriv" true Sba.nonpriv_supported;
  Alcotest.(check bool) "vlx nonpriv" false Vlx.nonpriv_supported;
  Alcotest.(check int) "sba undef skip" 4 Sba.undef_skip_bytes;
  Alcotest.(check int) "vlx ud2 skip" 2 Vlx.undef_skip_bytes

let test_fig4_features () =
  (* the feature matrix distinguishes the engines the way Figure 4 does *)
  let feature engine key =
    List.assoc key (Sb_sim.Engine.features engine)
  in
  let arch = Sb_isa.Arch_sig.Sba in
  Alcotest.(check string) "dbt codegen" "Threaded Code"
    (feature (Simbench.Engines.dbt arch) "Code Generation");
  Alcotest.(check string) "interp codegen" "None"
    (feature (Simbench.Engines.interp arch) "Code Generation");
  Alcotest.(check string) "virt undef" "Hypercall"
    (feature (Simbench.Engines.virt arch) "Undefined Instruction");
  Alcotest.(check string) "native direct" "Direct"
    (feature (Simbench.Engines.native arch) "Undefined Instruction");
  Alcotest.(check string) "dbt interrupts" "Block Boundaries"
    (feature (Simbench.Engines.dbt arch) "Interrupts")

let test_extensions () =
  List.iter
    (fun arch ->
      let support = Simbench.Engines.support arch in
      List.iter
        (fun (label, engine) ->
          (* nested exception: one svc + one data abort per iteration *)
          let o =
            H.run ~scale ~support ~engine Simbench.Suite_ext.nested_exception
          in
          Alcotest.(check bool)
            (Printf.sprintf "nested/%s svc+abort" label)
            true
            (get o Perf.Svc_taken >= o.H.iters && get o Perf.Data_abort >= o.H.iters);
          (* page-table modification: remaps must be observed *)
          let o =
            H.run ~iters:10 ~support ~engine
              Simbench.Suite_ext.page_table_modification
          in
          Alcotest.(check bool)
            (Printf.sprintf "ptmod/%s tlbi" label)
            true
            (get o Perf.Tlb_inv_page_ops >= 10);
          (* exception return: five returns per iteration *)
          let o =
            H.run ~scale ~support ~engine Simbench.Suite_ext.exception_return
          in
          Alcotest.(check bool)
            (Printf.sprintf "eret/%s" label)
            true
            (get o Perf.Svc_taken >= o.H.iters);
          (* context switch: two ASID writes are cop writes *)
          let o =
            H.run ~iters:50 ~support ~engine Simbench.Suite_ext.context_switch
          in
          Alcotest.(check bool)
            (Printf.sprintf "asid/%s" label)
            true
            (get o Perf.Cop_writes >= 50 && get o Perf.Loads >= 400))
        (engines_for arch))
    [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]

let test_page_table_modification_observes_remap () =
  (* the marker loaded on the last iteration must match the frame the last
     PTE write installed: 10 iterations end on frame 0 (0xAAAA) *)
  List.iter
    (fun (label, engine) ->
      let arch = Sb_isa.Arch_sig.Sba in
      let p = Simbench.Platform.sbp_ref in
      let machine = Simbench.Platform.machine p () in
      Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev 10;
      let program =
        Simbench.Rt.program
          ~support:(Simbench.Engines.support arch)
          ~platform:p ~bench:Simbench.Suite_ext.page_table_modification
      in
      Sb_sim.Machine.load_program machine program;
      let result = Sb_sim.Engine.run engine ~max_insns:10_000_000 machine in
      Alcotest.(check bool) (label ^ " halted") true
        (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
      let observed =
        Sb_mem.Phys_mem.read32
          (Sb_mem.Bus.ram machine.Sb_sim.Machine.bus)
          (p.Simbench.Platform.scratch_base + (2 * 4096))
      in
      Alcotest.(check int) (label ^ " final marker observed") 0xAAAA observed)
    (engines_for Sb_isa.Arch_sig.Sba)

let test_asid_tagging_signature () =
  (* the Context Switch benchmark separates ASID-tagged implementations
     (DBT, virt: working set stays cached across switches) from untagged
     ones (detailed: full flush per switch) *)
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let walks engine =
    let o = H.run ~iters:500 ~support ~engine Simbench.Suite_ext.context_switch in
    get o Perf.Mmu_walks
  in
  let tagged = walks (Simbench.Engines.dbt arch) in
  let untagged = walks (Simbench.Engines.detailed arch) in
  Alcotest.(check bool)
    (Printf.sprintf "tagged (%d) walks far less than untagged (%d)" tagged untagged)
    true
    (untagged > 20 * max 1 tagged)

let test_front_cache_signature () =
  (* the dispatch front caches must fire on indirect control flow (which
     cannot chain, so every taken branch goes through block lookup), and
     the DBT's must not change what executes: its retired-instruction
     stream is identical with the knob on and off *)
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let bench = Simbench.Suite.intra_page_indirect in
  let probe engine =
    let o = H.run ~iters:2_000 ~support ~engine bench in
    (get o Perf.Front_cache_hits, Perf.get o.H.result.Sb_sim.Run_result.perf Perf.Insns)
  in
  let dbt_on, dbt_insns =
    probe (Simbench.Engines.dbt_configured arch Sb_dbt.Config.default)
  in
  let dbt_off, dbt_insns' =
    probe
      (Simbench.Engines.dbt_configured arch
         { Sb_dbt.Config.default with Sb_dbt.Config.front_cache = false })
  in
  Alcotest.(check bool)
    (Printf.sprintf "dbt front cache fires (%d hits)" dbt_on)
    true (dbt_on > 1_000);
  Alcotest.(check int) "dbt: off means zero hits" 0 dbt_off;
  Alcotest.(check int) "dbt: same instruction stream" dbt_insns dbt_insns';
  let interp_on, _ =
    probe (Simbench.Engines.interp_configured arch Sb_interp.Interp.Config.default)
  in
  Alcotest.(check bool)
    (Printf.sprintf "interp front cache fires (%d hits)" interp_on)
    true (interp_on > 1_000)

(* The token-threaded opstream backend must retire exactly the same
   instruction stream as the closure backend it replaced, on every
   benchmark of the suite.  (The interpreter is not a valid baseline here:
   the DBT retires in block units, so the kernel-phase boundary attributes
   a handful of extra instructions to the DBT's kernel window on every
   benchmark — a pre-existing property shared by both backends.) *)
let test_kernel_insns_identity arch () =
  let threaded = Simbench.Engines.dbt arch in
  let closure =
    Simbench.Engines.dbt_configured arch
      { Sb_dbt.Config.default with Sb_dbt.Config.threaded = false }
  in
  List.iter
    (fun bench ->
      let insns engine = (run ~arch ~engine bench).H.kernel_insns in
      Alcotest.(check int)
        (bench.Simbench.Bench.name ^ " threaded vs closure")
        (insns closure) (insns threaded))
    Simbench.Suite.all

(* ------------------------------------------------------------------ *)
(* The harness's pooled guest RAM                                       *)
(* ------------------------------------------------------------------ *)

(* A pooled machine must be indistinguishable from a freshly built one,
   whatever the previous run left behind in RAM, CPU, devices or bus. *)
let test_pooled_machine_equivalence () =
  let arch = Sb_isa.Arch_sig.Sba in
  let engine = Simbench.Engines.interp arch in
  let p = Simbench.Platform.sbp_ref in
  let program =
    Simbench.Rt.program
      ~support:(Simbench.Engines.support arch)
      ~platform:p ~bench:Simbench.Suite.memory_mapped_device
  in
  let prepare (m : Sb_sim.Machine.t) =
    Sb_mem.Benchdev.set_iters m.Sb_sim.Machine.benchdev 10;
    Sb_sim.Machine.load_program m program;
    m
  in
  (* dirty a pooled machine: a partial run, then RAM writes across the
     whole size, device accesses and a fault injector that fails every
     device access *)
  let dirty = prepare (H.machine p) in
  let (_ : Sb_sim.Run_result.t) =
    Sb_sim.Engine.run engine ~max_insns:5_000 dirty
  in
  let ram = Sb_mem.Bus.ram dirty.Sb_sim.Machine.bus in
  for page = 0 to (p.Simbench.Platform.ram_size / 4096) - 1 do
    Sb_mem.Phys_mem.write32 ram ((page * 4096) + (page land 1023 * 4)) (page + 1)
  done;
  Sb_mem.Phys_mem.write8 ram (p.Simbench.Platform.ram_size - 1) 0xFF;
  let bus = dirty.Sb_sim.Machine.bus in
  Sb_mem.Bus.write32 bus p.Simbench.Platform.uart_base (Char.code '!');
  ignore (Sb_mem.Bus.read32 bus p.Simbench.Platform.devid_base);
  Sb_mem.Bus.set_fault_injector bus (Some (fun ~nth:_ ~rw:_ ~addr:_ -> true));
  let pooled = prepare (H.machine p) in
  Alcotest.(check bool) "the RAM buffer is reused" true
    (Sb_mem.Bus.ram pooled.Sb_sim.Machine.bus == ram);
  let fresh = prepare (Simbench.Platform.machine p ()) in
  (* byte for byte, not only through the snapshot: [Snapshot.save] skips
     pages the dirty map says are zero, so it cannot see a page that a
     write forgot to mark and [clear] therefore left dirty *)
  let bytes m =
    Sb_mem.Phys_mem.blit_out
      (Sb_mem.Bus.ram m.Sb_sim.Machine.bus)
      ~addr:0 ~len:p.Simbench.Platform.ram_size
  in
  Alcotest.(check bool) "same RAM bytes as Platform.machine" true
    (Bytes.equal (bytes fresh) (bytes pooled));
  let digest m = Sb_sim.Snapshot.digest (Sb_sim.Snapshot.save m) in
  Alcotest.(check string) "same state as Platform.machine" (digest fresh)
    (digest pooled);
  (* nothing the snapshot does not see survives either: the injector is
     gone, so the device-heavy bench halts cleanly with the same count *)
  let kernel m =
    let r = Sb_sim.Engine.run engine m in
    Alcotest.(check bool) "halted" true
      (r.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
    Alcotest.(check int) "exit code" 0 r.Sb_sim.Run_result.exit_code;
    Option.get (Sb_sim.Run_result.kernel_insns r)
  in
  Alcotest.(check int) "same kernel_insns" (kernel fresh) (kernel pooled)

(* Every run reuses the pooled RAM, and virt and native take over the
   host TLB of the run before, so each suite bench must count the same in
   any order the process runs them.  A recycled table that leaked a stale
   entry would show in [kernel_perf], for instance as fewer [Mmu_walks].  Cold
   runs boot through a guest TLB flush; runs resumed at the kernel phase
   start with the MMU on and no flush, so they would expose a host TLB
   entry carried over from the previous run. *)
let test_run_order_independence () =
  let iters = 3 in
  List.iter
    (fun (arch, (engine_label, engine), switch_at) ->
      let support = Simbench.Engines.support arch in
      let engine_label =
        if switch_at = None then engine_label else engine_label ^ " resumed"
      in
      let sweep benches =
        List.map
          (fun bench ->
            let o = H.run ~iters ?switch_at ~support ~engine bench in
            let perf =
              Perf.to_alist (Option.get o.H.result.Sb_sim.Run_result.kernel_perf)
              |> List.map (fun (c, n) -> Printf.sprintf "%s=%d" (Perf.to_string c) n)
            in
            (bench.Simbench.Bench.name, (o.H.kernel_insns, perf)))
          benches
      in
      let forward = sweep Simbench.Suite.all in
      let backward = sweep (List.rev Simbench.Suite.all) in
      List.iter
        (fun (name, (insns, perf)) ->
          let insns', perf' = List.assoc name backward in
          let label what = Printf.sprintf "%s on %s: %s" name engine_label what in
          Alcotest.(check int) (label "kernel_insns") insns insns';
          Alcotest.(check (list string)) (label "kernel_perf") perf perf')
        forward)
    (List.concat_map
       (fun arch ->
         List.concat_map
           (fun engine ->
             [ (arch, engine, None); (arch, engine, Some Simbench.Checkpoint.Kernel_phase) ])
           (List.filter
              (fun (label, _) -> List.mem label [ "interp"; "virt"; "native"; "dbt" ])
              (engines_for arch)))
       [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ])

(* A forked worker must not write into the buffer it shares copy-on-write
   with its parent: it builds its own on its first call and reuses that. *)
let test_forked_worker_own_ram () =
  let p = Simbench.Platform.sbp_ref in
  let ram () = Sb_mem.Bus.ram (H.machine p).Sb_sim.Machine.bus in
  let parent = ram () in
  let child () =
    let first = ram () in
    (first != parent, ram () == first)
  in
  (match Sb_jobs.Pool.run ~deadline:60. [ Sb_jobs.Pool.task ~label:"child" child ] with
  | [ Sb_jobs.Pool.Done (distinct, reused) ] ->
    Alcotest.(check bool) "child RAM is not the parent's" true distinct;
    Alcotest.(check bool) "child reuses its own RAM" true reused
  | _ -> Alcotest.fail "forked worker did not report");
  Alcotest.(check bool) "parent keeps its RAM" true (ram () == parent)

(* The per-instruction and per-block paths of interp, native, virt and
   both DBT backends (closure blocks at v1.7.0, threaded code with traces
   at v2.7.0) must not allocate incidentally, on either ISA, within a page
   or across pages: no option per TLB or chain hit, no closure per
   dispatch or per instruction, no tuple per flag-setting ALU op, no list
   per failed trace attempt.  Minor-heap words are read around a run at N
   and at 2N iterations, so everything the two runs share (machine build,
   set-up phase, translation) cancels and only the kernel's marginal
   allocation per retired instruction is left.  The detailed model
   allocates its pipeline events and exceptions allocate their records,
   so neither is covered here.

   Code generation allocates its decoded instructions: Small Blocks and
   Large Blocks write code every iteration, and interp, virt and native
   decode it again after each self-modifying-code invalidation.  Their
   bound is 10% over what that cost with one flat predecode array per
   page, so clearing a predecode page must refill its chunks in place, not
   allocate new ones. *)
let test_kernel_minor_words () =
  let n = 500 in
  let check arch engine_name bench_name bound =
    let support = Simbench.Engines.support arch in
    let engine =
      match Simbench.Engines.of_string arch engine_name with
      | Ok e -> e
      | Error msg -> Alcotest.fail msg
    in
    let bench = Option.get (Simbench.Suite.find bench_name) in
    let measure iters =
      let w0 = Gc.minor_words () in
      let o = H.run ~iters ~support ~engine bench in
      (Gc.minor_words () -. w0, o.H.kernel_insns)
    in
    ignore (measure n);
    let w1, i1 = measure n in
    let w2, i2 = measure (2 * n) in
    let per_insn = (w2 -. w1) /. float_of_int (i2 - i1) in
    if per_insn > bound then
      Alcotest.failf "%s on %s (%s): %.3f minor words per kernel instruction (bound %g)"
        bench_name engine_name (Sb_isa.Arch_sig.arch_id_name arch) per_insn bound
  in
  List.iter
    (fun arch ->
      List.iter
        (fun engine_name ->
          List.iter
            (fun bench_name -> check arch engine_name bench_name 0.05)
            [
              "Intra-Page Direct";
              "Inter-Page Direct";
              "Inter-Page Indirect";
              "Hot Memory Access";
            ])
        [ "interp"; "native"; "virt"; "dbt@v1.7.0"; "dbt@v2.7.0" ];
      List.iter
        (fun engine_name ->
          List.iter
            (fun (bench_name, sba, vlx) ->
              let flat = match arch with Sb_isa.Arch_sig.Sba -> sba | Vlx -> vlx in
              check arch engine_name bench_name (1.1 *. flat))
            [ ("Small Blocks", 5.263, 5.298); ("Large Blocks", 25.83, 26.20) ])
        [ "interp"; "native"; "virt" ])
    [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]

let () =
  Alcotest.run "simbench"
    [
      ("suite-sba", suite_cases Sb_isa.Arch_sig.Sba);
      ("suite-vlx", suite_cases Sb_isa.Arch_sig.Vlx);
      ( "kernel-insns",
        [
          Alcotest.test_case "sba threaded/closure identical" `Quick
            (test_kernel_insns_identity Sb_isa.Arch_sig.Sba);
          Alcotest.test_case "vlx threaded/closure identical" `Quick
            (test_kernel_insns_identity Sb_isa.Arch_sig.Vlx);
        ] );
      ( "registry",
        [
          Alcotest.test_case "structure" `Quick test_suite_registry;
          Alcotest.test_case "figure 3 iterations" `Quick test_default_iters_match_paper;
          Alcotest.test_case "harness scaling" `Quick test_harness_scaling;
          Alcotest.test_case "densities" `Quick test_density_positive;
          Alcotest.test_case "support constants" `Quick test_support_constants;
          Alcotest.test_case "sbp-mini platform" `Quick test_sbp_mini_platform;
          Alcotest.test_case "figure 4 features" `Quick test_fig4_features;
        ] );
      ( "runtime",
        [ Alcotest.test_case "guest-built page tables" `Quick test_page_table_runtime ] );
      ( "boot",
        [
          Alcotest.test_case "tables at the kernel-phase write" `Quick test_boot_tables;
          Alcotest.test_case "setup under 3000 instructions" `Quick test_boot_cost;
          Alcotest.test_case "stub alone on the last page" `Quick test_boot_stub_page;
          Alcotest.test_case "reset re-enters the stub" `Quick test_reset_reenters_stub;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "all engines" `Quick test_extensions;
          Alcotest.test_case "remap observed" `Quick
            test_page_table_modification_observes_remap;
          Alcotest.test_case "asid tagging distinguishes engines" `Quick
            test_asid_tagging_signature;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "front caches fire and are transparent" `Quick
            test_front_cache_signature;
        ] );
      ( "ram-pool",
        [
          Alcotest.test_case "pooled machine = Platform.machine" `Quick
            test_pooled_machine_equivalence;
          Alcotest.test_case "run order does not matter" `Quick
            test_run_order_independence;
          Alcotest.test_case "forked worker builds its own RAM" `Quick
            test_forked_worker_own_ram;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "kernel minor words per instruction" `Quick
            test_kernel_minor_words;
        ] );
    ]
