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

(* Interp, virt and native predecode by the 64-byte chunk: a code page
   holds slots only where its code lies.  Inter-Page Direct and Indirect
   put one short function on each of 16 pages, so each engine fetches from
   about 18 pages; a flat 4,096-slot array per page grew the major heap by
   about 74 k words per engine.  Fresh engines are instantiated, so none
   reuses what an earlier case left, and kept reachable until measured,
   since each one's session holds its pages.  Interp runs both benches
   first, to bring in the harness's pooled RAM and the pages the benches
   write.  A full major collection before each reading leaves what the
   engine holds, young chunks included. *)
let test_predecode_by_chunk () =
  let module Interp_sba = Sb_interp.Interp.Make (Sb_arch_sba.Arch) in
  let module Virt_sba = Sb_virt.Virt.Make_virt (Sb_arch_sba.Arch) in
  let module Native_sba = Sb_virt.Virt.Make_native (Sb_arch_sba.Arch) in
  let module Interp_vlx = Sb_interp.Interp.Make (Sb_arch_vlx.Arch) in
  let module Virt_vlx = Sb_virt.Virt.Make_virt (Sb_arch_vlx.Arch) in
  let module Native_vlx = Sb_virt.Virt.Make_native (Sb_arch_vlx.Arch) in
  let sba = Sb_isa.Arch_sig.Sba and vlx = Sb_isa.Arch_sig.Vlx in
  let run arch (engine : Sb_sim.Engine.t) =
    List.iter
      (fun bench ->
        ignore
          (Simbench.Harness.run ~support:(Simbench.Engines.support arch) ~engine bench))
      [ Simbench.Suite.inter_page_direct; Simbench.Suite.inter_page_indirect ]
  in
  run sba (Simbench.Engines.interp sba);
  run vlx (Simbench.Engines.interp vlx);
  let heap_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.heap_words
  in
  let engines : (string * Sb_isa.Arch_sig.arch_id * Sb_sim.Engine.t) list =
    [
      ("interp", sba, (module Interp_sba));
      ("virt", sba, (module Virt_sba));
      ("native", sba, (module Native_sba));
      ("interp", vlx, (module Interp_vlx));
      ("virt", vlx, (module Virt_vlx));
      ("native", vlx, (module Native_vlx));
    ]
  in
  List.iter
    (fun (label, arch, engine) ->
      let before = heap_words () in
      run arch engine;
      let grown = heap_words () - before in
      if grown >= 64 * 1024 then
        Alcotest.failf "%s on %s grew the major heap by %d words" label
          (Sb_isa.Arch_sig.arch_id_name arch) grown)
    engines;
  ignore (Sys.opaque_identity engines)

(* A VLX instruction whose bytes run from one 64-byte chunk into the next,
   inside one page, is filed under the chunk of its first byte: each
   engine decodes the loop once, and interp's later fetches hit its front
   cache, with the counts of a flat per-page array. *)
let test_chunk_straddle () =
  let module VI = Sb_arch_vlx.Insn in
  let module Interp_vlx = Sb_interp.Interp.Make (Sb_arch_vlx.Arch) in
  let module Virt_vlx = Sb_virt.Virt.Make_virt (Sb_arch_vlx.Arch) in
  let module Native_vlx = Sb_virt.Virt.Make_native (Sb_arch_vlx.Arch) in
  let n = 100 in
  let straddle = 62 in
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      [
        Label "start";
        Insn (VI.Movi (2, n));
        Insn (VI.Jmp "loop");
        Org straddle;
        Label "loop";
        Insn (VI.Alu_ri (Sb_isa.Uop.Sub, 2, 2, 1));
        Insn (VI.Cmp_ri (2, 0));
        Insn (VI.Jcc (Sb_isa.Uop.Ne, "loop"));
        Insn VI.Halt;
      ]
  in
  let sub = VI.size (VI.Alu_ri (Sb_isa.Uop.Sub, 2, 2, 1)) in
  Alcotest.(check bool) "the loop's first instruction crosses a chunk" true
    (straddle / 64 <> (straddle + sub - 1) / 64);
  let count engine counter =
    let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
    Sb_sim.Machine.load_program machine program;
    let result = Sb_sim.Engine.run engine ~max_insns:1_000_000 machine in
    Alcotest.(check bool) "halted" true
      (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
    Sb_sim.Perf.get result.Sb_sim.Run_result.perf counter
  in
  (* Movi, Jmp, the three loop instructions and Halt *)
  let decoded = 6 in
  List.iter
    (fun (label, engine) ->
      Alcotest.(check int) (label ^ " decodes each instruction once") decoded
        (count engine Sb_sim.Perf.Decodes))
    [
      ("interp", (module Interp_vlx : Sb_sim.Engine.ENGINE));
      ("virt", (module Virt_vlx));
      ("native", (module Native_vlx));
    ];
  (* every loop fetch after the first pass *)
  Alcotest.(check int) "interp front cache hits" (3 * (n - 1))
    (count (module Interp_vlx) Sb_sim.Perf.Front_cache_hits)

let () =
  Alcotest.run "sb_virt"
    [
      ( "memory",
        [
          Alcotest.test_case "host TLB off the heap" `Quick test_host_tlb_off_heap;
          Alcotest.test_case "predecode by the chunk" `Quick test_predecode_by_chunk;
          Alcotest.test_case "instruction across a chunk" `Quick test_chunk_straddle;
        ] );
      ( "vm-exits",
        [
          Alcotest.test_case "per device access" `Quick test_vm_exits_per_device_access;
          Alcotest.test_case "state preserved" `Quick test_vm_exit_preserves_state;
          Alcotest.test_case "undef hypercall" `Quick test_undef_is_hypercall;
          Alcotest.test_case "cost scales" `Quick test_virt_cost_scales;
        ] );
    ]
