(* Tests specific to the direct-execution engines: vm-exit accounting and
   the virt/native cost split. *)

module Virt = Sb_virt.Virt.Make_virt (Sb_arch_sba.Arch)
module Native = Sb_virt.Virt.Make_native (Sb_arch_sba.Arch)
module SI = Sb_arch_sba.Insn
open Sb_asm.Assembler

let insns l = List.map (fun i -> Insn i) l

let run engine program =
  let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
  Sb_sim.Machine.load_program machine program;
  let result = Sb_sim.Engine.run engine ~max_insns:1_000_000 machine in
  (machine, result)

let vm_exits result = Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Vm_exits

let device_program n =
  SI.Asm.assemble ~base:0 ~entry:"start"
    ([ Label "start" ]
    @ insns (SI.li 1 Sb_sim.Machine.Map.devid_base)
    @ insns [ SI.Movw (2, n) ]
    @ [ Label "loop" ]
    @ insns
        [
          SI.Ldr (0, 1, 0);
          SI.Sub (2, 2, SI.Imm 1);
          SI.Cmp (2, SI.Imm 0);
          SI.Bcc (Sb_isa.Uop.Ne, "loop");
          SI.Halt;
        ])

let test_vm_exits_per_device_access () =
  let _, result = run (module Virt) (device_program 100) in
  Alcotest.(check int) "one exit per device read" 100 (vm_exits result);
  let _, native_result = run (module Native) (device_program 100) in
  Alcotest.(check int) "native never exits" 0 (vm_exits native_result)

let test_vm_exit_preserves_state () =
  (* the world switch must be architecturally invisible *)
  let program = device_program 10 in
  let virt_machine, _ = run (module Virt) program in
  let native_machine, _ = run (module Native) program in
  Alcotest.(check (array int))
    "identical registers despite exits"
    native_machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.regs
    virt_machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.regs

let test_undef_is_hypercall () =
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ insns (SI.la 0 "vectors" @ [ SI.Mcr (Sb_isa.Cregs.vbar, 0) ])
      @ insns [ SI.Udf; SI.Halt ]
      @ [ Label "h" ]
      @ insns
          [
            SI.Mrc (0, Sb_isa.Cregs.elr);
            SI.Add (0, 0, SI.Imm 4);
            SI.Mcr (Sb_isa.Cregs.elr, 0);
            SI.Eret;
          ]
      @ [ Label "vectors"; Insn (SI.B "start"); Insn SI.Nop ]
      @ [ Insn (SI.B "h"); Insn SI.Nop ]
      @ List.concat (List.init 4 (fun _ -> [ Insn (SI.B "start"); Insn SI.Nop ])))
  in
  let _, virt_result = run (module Virt) program in
  Alcotest.(check int) "undef exits once" 1 (vm_exits virt_result);
  let _, native_result = run (module Native) program in
  Alcotest.(check int) "native direct" 0 (vm_exits native_result)

let test_virt_cost_scales () =
  (* more exit rounds must cost measurably more wall time on an I/O loop *)
  let mk rounds : Sb_sim.Engine.t =
    (module Sb_virt.Virt.Make_configured
              (Sb_arch_sba.Arch)
              (struct
                let config =
                  { Sb_virt.Virt.Config.vm_exit_rounds = rounds; name_suffix = "t" }
              end))
  in
  let time rounds =
    let program = device_program 10_000 in
    let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
    Sb_sim.Machine.load_program machine program;
    let t0 = Unix.gettimeofday () in
    ignore (Sb_sim.Engine.run (mk rounds) ~max_insns:10_000_000 machine);
    Unix.gettimeofday () -. t0
  in
  let cheap = min (time 4) (time 4) in
  let expensive = min (time 512) (time 512) in
  Alcotest.(check bool)
    (Printf.sprintf "512 rounds (%.4fs) slower than 4 (%.4fs)" expensive cheap)
    true
    (expensive > 2. *. cheap)

(* The host TLB of virt and native is a zero mapping: a run grows neither
   the major heap nor the resident set by the table's 8 MiB, only by the
   pages of the slots it writes.  The engines are instantiated here and
   kept reachable until measured, since each one's session holds its
   table.  The case runs first in this suite: a table that an earlier
   case built and dropped would leave freed memory, in the heap or the
   allocator, for a new one to reuse unseen.  A run on interp first brings
   in the harness's pooled RAM and the pages the bench writes. *)
let test_host_tlb_off_heap () =
  let module Fresh_virt = Sb_virt.Virt.Make_virt (Sb_arch_sba.Arch) in
  let module Fresh_native = Sb_virt.Virt.Make_native (Sb_arch_sba.Arch) in
  let arch = Sb_isa.Arch_sig.Sba in
  let run engine =
    ignore
      (Simbench.Harness.run ~support:(Simbench.Engines.support arch) ~engine
         Simbench.Suite.hot_memory_access)
  in
  run (Simbench.Engines.interp arch);
  let has_status = Sys.file_exists "/proc/self/status" in
  let heap_words () = (Gc.quick_stat ()).Gc.heap_words in
  let heap_before = heap_words () in
  let rss_before = if has_status then Proc_status.vm_rss_kib () else 0 in
  let engines : Sb_sim.Engine.t list = [ (module Fresh_virt); (module Fresh_native) ] in
  List.iter run engines;
  let grown = heap_words () - heap_before in
  if grown >= 64 * 1024 then
    Alcotest.failf "virt and native grew the major heap by %d words" grown;
  if not has_status then print_endline "skipped: no /proc/self/status on this host"
  else begin
    let grown = Proc_status.vm_rss_kib () - rss_before in
    if grown >= 4 * 1024 then Alcotest.failf "virt and native grew VmRSS by %d KiB" grown
  end;
  ignore (Sys.opaque_identity engines)

let () =
  Alcotest.run "sb_virt"
    [
      ( "memory",
        [ Alcotest.test_case "host TLB off the heap" `Quick test_host_tlb_off_heap ] );
      ( "vm-exits",
        [
          Alcotest.test_case "per device access" `Quick test_vm_exits_per_device_access;
          Alcotest.test_case "state preserved" `Quick test_vm_exit_preserves_state;
          Alcotest.test_case "undef hypercall" `Quick test_undef_is_hypercall;
          Alcotest.test_case "cost scales" `Quick test_virt_cost_scales;
        ] );
    ]
