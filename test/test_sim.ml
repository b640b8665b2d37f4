(* Unit tests for the sim-core library: CPU state, PSR packing, the
   exception model, coprocessor semantics, ALU evaluation and perf
   counters. *)

module Cpu = Sb_sim.Cpu
module Exn = Sb_sim.Exn
module Cop = Sb_sim.Cop
module Perf = Sb_sim.Perf
module Alu = Sb_sim.Alu_eval
module Uop = Sb_isa.Uop
module Cregs = Sb_isa.Cregs

let test_cpu_reset () =
  let cpu = Cpu.create () in
  Alcotest.(check bool) "kernel mode" true (cpu.Cpu.mode = Sb_mmu.Access.Kernel);
  Alcotest.(check bool) "irqs masked" false cpu.Cpu.irq_enabled;
  Alcotest.(check bool) "cpuid nonzero" true (cpu.Cpu.cop.(Cregs.cpuid) <> 0);
  cpu.Cpu.regs.(3) <- 42;
  cpu.Cpu.pc <- 0x100;
  Cpu.reset cpu;
  Alcotest.(check int) "regs cleared" 0 cpu.Cpu.regs.(3);
  Alcotest.(check int) "pc cleared" 0 cpu.Cpu.pc

let test_psr_roundtrip () =
  let cpu = Cpu.create () in
  cpu.Cpu.mode <- Sb_mmu.Access.User;
  cpu.Cpu.irq_enabled <- true;
  cpu.Cpu.flag_n <- true;
  cpu.Cpu.flag_c <- true;
  let packed = Cpu.psr_encode cpu in
  let other = Cpu.create () in
  Cpu.psr_restore other packed;
  Alcotest.(check bool) "mode" true (other.Cpu.mode = Sb_mmu.Access.User);
  Alcotest.(check bool) "irq" true other.Cpu.irq_enabled;
  Alcotest.(check bool) "n" true other.Cpu.flag_n;
  Alcotest.(check bool) "z" false other.Cpu.flag_z;
  Alcotest.(check bool) "c" true other.Cpu.flag_c;
  Alcotest.(check bool) "v" false other.Cpu.flag_v

let test_mmu_enable_bit () =
  let cpu = Cpu.create () in
  Alcotest.(check bool) "off at reset" false (Cpu.mmu_enabled cpu);
  cpu.Cpu.cop.(Cregs.sctlr) <- 1;
  Alcotest.(check bool) "on" true (Cpu.mmu_enabled cpu)

let test_exception_entry_and_return () =
  let cpu = Cpu.create () in
  cpu.Cpu.cop.(Cregs.vbar) <- 0x8000;
  cpu.Cpu.mode <- Sb_mmu.Access.User;
  cpu.Cpu.irq_enabled <- true;
  cpu.Cpu.flag_z <- true;
  cpu.Cpu.pc <- 0x1234;
  Exn.enter cpu Exn.Data_abort ~return_addr:0x1234 ~far:0x6000_0000
    ~cause:Exn.Cause.data_translation ();
  Alcotest.(check int) "vector pc" (0x8000 + Exn.vector_offset Exn.Data_abort)
    cpu.Cpu.pc;
  Alcotest.(check int) "elr" 0x1234 cpu.Cpu.cop.(Cregs.elr);
  Alcotest.(check int) "far" 0x6000_0000 cpu.Cpu.cop.(Cregs.far);
  Alcotest.(check int) "esr" Exn.Cause.data_translation cpu.Cpu.cop.(Cregs.esr);
  Alcotest.(check bool) "kernel now" true (cpu.Cpu.mode = Sb_mmu.Access.Kernel);
  Alcotest.(check bool) "irqs masked" false cpu.Cpu.irq_enabled;
  (* ERET restores everything *)
  Exn.eret cpu;
  Alcotest.(check int) "pc restored" 0x1234 cpu.Cpu.pc;
  Alcotest.(check bool) "mode restored" true (cpu.Cpu.mode = Sb_mmu.Access.User);
  Alcotest.(check bool) "irq restored" true cpu.Cpu.irq_enabled;
  Alcotest.(check bool) "flags restored" true cpu.Cpu.flag_z

let test_vector_offsets_distinct () =
  let vs = [ Exn.Reset; Exn.Undefined; Exn.Syscall; Exn.Prefetch_abort; Exn.Data_abort; Exn.Irq ] in
  let offsets = List.map Exn.vector_offset vs in
  Alcotest.(check int) "all distinct" (List.length vs)
    (List.length (List.sort_uniq compare offsets));
  List.iter
    (fun o -> Alcotest.(check int) "8-byte slots" 0 (o mod 8))
    offsets

let test_cause_mapping () =
  let open Sb_mmu.Access in
  Alcotest.(check int) "exec translation" Exn.Cause.prefetch_translation
    (Exn.Cause.of_fault ~kind:Execute Translation);
  Alcotest.(check int) "read permission" Exn.Cause.data_permission
    (Exn.Cause.of_fault ~kind:Read Permission);
  Alcotest.(check int) "write translation" Exn.Cause.data_translation
    (Exn.Cause.of_fault ~kind:Write Translation)

let test_cop_semantics () =
  let cpu = Cpu.create () in
  (* ordinary write/read *)
  (match Cop.write cpu ~creg:Cregs.dacr ~value:0x55 with
  | Ok Cop.No_effect -> ()
  | _ -> Alcotest.fail "dacr write is plain");
  Alcotest.(check bool) "readback" true (Cop.read cpu ~creg:Cregs.dacr = Ok 0x55);
  (* translation-affecting writes *)
  (match Cop.write cpu ~creg:Cregs.ttbr ~value:0x4000 with
  | Ok Cop.Translation_changed -> ()
  | _ -> Alcotest.fail "ttbr changes translation");
  (match Cop.write cpu ~creg:Cregs.sctlr ~value:1 with
  | Ok Cop.Translation_changed -> ()
  | _ -> Alcotest.fail "sctlr changes translation");
  (* cpuid is read-only *)
  let id = cpu.Cpu.cop.(Cregs.cpuid) in
  (match Cop.write cpu ~creg:Cregs.cpuid ~value:0 with
  | Ok Cop.No_effect -> ()
  | _ -> Alcotest.fail "cpuid write ignored");
  Alcotest.(check int) "cpuid unchanged" id cpu.Cpu.cop.(Cregs.cpuid);
  (* unarchitected register numbers *)
  Alcotest.(check bool) "bad read" true (Cop.read cpu ~creg:99 = Error `Undefined);
  Alcotest.(check bool) "bad write" true
    (Cop.write cpu ~creg:99 ~value:0 = Error `Undefined)

let test_alu_eval () =
  Alcotest.(check int) "add wraps" 0 (Alu.eval Uop.Add 0xFFFF_FFFF 1);
  Alcotest.(check int) "mul wraps" 0xFFFFFFFE (Alu.eval Uop.Mul 0xFFFF_FFFF 2);
  Alcotest.(check int) "asr" 0xFFFF_FFFF (Alu.eval Uop.Asr 0x8000_0000 31);
  let cpu = Cpu.create () in
  (* [(result, n, z, c, v)] left in [cpu] by one flag-setting op *)
  let flags op a b =
    let result = Alu.eval_set_flags cpu op a b in
    Cpu.(result, cpu.flag_n, cpu.flag_z, cpu.flag_c, cpu.flag_v)
  in
  let _, n, z, c, v = flags Uop.Sub 5 5 in
  Alcotest.(check bool) "z on equal" true z;
  Alcotest.(check bool) "c set (no borrow)" true c;
  Alcotest.(check bool) "n clear" false n;
  Alcotest.(check bool) "v clear" false v;
  let _, n, _, c, _ = flags Uop.Sub 3 5 in
  Alcotest.(check bool) "borrow clears c" false c;
  Alcotest.(check bool) "negative sets n" true n;
  let r, _, _, c, _ = flags Uop.Sub 0 1 in
  Alcotest.(check int) "sub borrow result" 0xFFFF_FFFF r;
  Alcotest.(check bool) "sub borrow" false c;
  let r, n, _, c, v = flags Uop.Add 0x7FFF_FFFF 1 in
  Alcotest.(check int) "add ovf result" 0x8000_0000 r;
  Alcotest.(check bool) "signed overflow" true v;
  Alcotest.(check bool) "no carry" false c;
  Alcotest.(check bool) "overflow sets n" true n;
  let r, _, z, c, v = flags Uop.Add 0xFFFF_FFFF 1 in
  Alcotest.(check int) "add carry result" 0 r;
  Alcotest.(check bool) "add carry" true c;
  Alcotest.(check bool) "add no ovf" false v;
  Alcotest.(check bool) "carry out to zero sets z" true z;
  (* logical ops clear c/v, whatever the previous op left *)
  let _, _, _, c, v = flags Uop.And_ 0xF 0xF0 in
  Alcotest.(check bool) "and clears c" false c;
  Alcotest.(check bool) "and clears v" false v;
  ignore (flags Uop.Add 0x7FFF_FFFF 1);
  let r, _, _, c, v = flags Uop.Orr 0xF 0xF0 in
  Alcotest.(check int) "orr result" 0xFF r;
  Alcotest.(check bool) "orr clears v" false v;
  Alcotest.(check bool) "orr clears c" false c

let test_eval_cond_matrix () =
  let open Uop in
  let t = true and f = false in
  (* (cond, n, z, c, v, expected) *)
  let cases =
    [
      (Always, f, f, f, f, t);
      (Eq, f, t, f, f, t);
      (Eq, f, f, f, f, f);
      (Ne, f, f, f, f, t);
      (Lt, t, f, f, f, t);   (* n <> v *)
      (Lt, t, f, f, t, f);
      (Ge, t, f, f, t, t);   (* n = v *)
      (Ltu, f, f, f, f, t);  (* not c *)
      (Geu, f, f, t, f, t);
    ]
  in
  List.iteri
    (fun i (cond, n, z, c, v, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d" i)
        expected
        (eval_cond cond ~n ~z ~c ~v))
    cases

let test_perf_counters () =
  let p = Perf.create () in
  Perf.incr p Perf.Insns;
  Perf.add p Perf.Loads 5;
  Alcotest.(check int) "get" 5 (Perf.get p Perf.Loads);
  let snap = Perf.copy p in
  Perf.add p Perf.Loads 3;
  let d = Perf.diff ~after:p ~before:snap in
  Alcotest.(check int) "diff" 3 (Perf.get d Perf.Loads);
  Alcotest.(check int) "diff untouched" 0 (Perf.get d Perf.Insns);
  Alcotest.(check int) "alist skips zeros" 2 (List.length (Perf.to_alist p));
  Perf.reset p;
  Alcotest.(check int) "reset" 0 (Perf.get p Perf.Insns);
  (* every counter has a printable name and a distinct enum slot *)
  let names = List.map Perf.to_string Perf.all in
  Alcotest.(check int) "names distinct" (List.length Perf.all)
    (List.length (List.sort_uniq compare names))

let test_machine_construction () =
  let m = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
  Alcotest.(check int) "ram size" (1 lsl 20) m.Sb_sim.Machine.ram_size;
  Alcotest.(check bool) "no irq pending" false (Sb_sim.Machine.irq_pending m);
  (* pending line + enabled + cpu mask *)
  Sb_mem.Intc.raise_line m.Sb_sim.Machine.intc 0;
  Alcotest.(check bool) "masked at intc" false (Sb_sim.Machine.irq_pending m);
  Sb_mem.Bus.write32 m.Sb_sim.Machine.bus (Sb_sim.Machine.Map.intc_base + 4) 1;
  Alcotest.(check bool) "cpu still masked" false (Sb_sim.Machine.irq_pending m);
  m.Sb_sim.Machine.cpu.Cpu.irq_enabled <- true;
  Alcotest.(check bool) "pending now" true (Sb_sim.Machine.irq_pending m)

let test_run_result_accessors () =
  let p = Perf.create () in
  Perf.add p Perf.Insns 7;
  let r =
    {
      Sb_sim.Run_result.engine = "test";
      stop = Sb_sim.Run_result.Halted;
      wall_seconds = 0.5;
      kernel_seconds = None;
      perf = p;
      kernel_perf = None;
      exit_code = 0;
      uart_output = "";
      tested_ops = 0;
      insns_into_kernel = None;
    }
  in
  Alcotest.(check int) "insns" 7 (Sb_sim.Run_result.insns r);
  Alcotest.(check bool) "no kernel insns" true (Sb_sim.Run_result.kernel_insns r = None)

let () =
  Alcotest.run "sb_sim"
    [
      ( "cpu",
        [
          Alcotest.test_case "reset" `Quick test_cpu_reset;
          Alcotest.test_case "psr roundtrip" `Quick test_psr_roundtrip;
          Alcotest.test_case "mmu bit" `Quick test_mmu_enable_bit;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "entry/return" `Quick test_exception_entry_and_return;
          Alcotest.test_case "vector offsets" `Quick test_vector_offsets_distinct;
          Alcotest.test_case "cause mapping" `Quick test_cause_mapping;
        ] );
      ( "cop", [ Alcotest.test_case "semantics" `Quick test_cop_semantics ] );
      ( "alu",
        [
          Alcotest.test_case "eval and flags" `Quick test_alu_eval;
          Alcotest.test_case "condition matrix" `Quick test_eval_cond_matrix;
        ] );
      ( "perf", [ Alcotest.test_case "counters" `Quick test_perf_counters ] );
      ( "machine",
        [
          Alcotest.test_case "construction" `Quick test_machine_construction;
          Alcotest.test_case "run result" `Quick test_run_result_accessors;
        ] );
    ]
