(* Cross-engine behavioural tests.

   Engines under test are instantiated here for both guest ISAs.  Every test
   runs on every engine: the engine list grows as engines are added, and the
   final section checks cross-engine equivalence on randomised programs. *)

module Uop = Sb_isa.Uop
module SI = Sb_arch_sba.Insn
module VI = Sb_arch_vlx.Insn
module Machine = Sb_sim.Machine
module Map = Sb_sim.Machine.Map

module Interp_sba = Sb_interp.Interp.Make (Sb_arch_sba.Arch)
module Interp_vlx = Sb_interp.Interp.Make (Sb_arch_vlx.Arch)
module Dbt_sba = Sb_dbt.Dbt.Make (Sb_arch_sba.Arch)
module Dbt_vlx = Sb_dbt.Dbt.Make (Sb_arch_vlx.Arch)

module Dbt_sba_baseline =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config = Sb_dbt.Config.baseline
    end)

(* Aggressive hot-trace formation: threshold 2 means any loop that runs a
   handful of iterations executes through stitched superblocks, so every
   equivalence/SMC property below also pins trace semantics. *)
module Dbt_sba_traces =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config = { Sb_dbt.Config.default with Sb_dbt.Config.trace_threshold = 2 }
    end)

(* The closure emission backend the threaded opstream replaced: keeping it
   in every behavioural test pins threaded-vs-closure equivalence on real
   guest programs, not just the symbolic validator. *)
module Dbt_sba_closure =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config = { Sb_dbt.Config.default with Sb_dbt.Config.threaded = false }
    end)

module Dbt_vlx_closure =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_vlx.Arch)
    (struct
      let config = { Sb_dbt.Config.default with Sb_dbt.Config.threaded = false }
    end)

module Detailed_sba = Sb_detailed.Detailed.Make (Sb_arch_sba.Arch)
module Detailed_vlx = Sb_detailed.Detailed.Make (Sb_arch_vlx.Arch)
module Virt_sba = Sb_virt.Virt.Make_virt (Sb_arch_sba.Arch)
module Virt_vlx = Sb_virt.Virt.Make_virt (Sb_arch_vlx.Arch)
module Native_sba = Sb_virt.Virt.Make_native (Sb_arch_sba.Arch)
module Native_vlx = Sb_virt.Virt.Make_native (Sb_arch_vlx.Arch)

let sba_engines : Sb_sim.Engine.t list =
  [
    (module Interp_sba);
    (module Dbt_sba);
    (module Dbt_sba_baseline);
    (module Dbt_sba_traces);
    (module Dbt_sba_closure);
    (module Detailed_sba);
    (module Virt_sba);
    (module Native_sba);
  ]

let vlx_engines : Sb_sim.Engine.t list =
  [
    (module Interp_vlx);
    (module Dbt_vlx);
    (module Dbt_vlx_closure);
    (module Detailed_vlx);
    (module Virt_vlx);
    (module Native_vlx);
  ]

let run_program ~(engine : Sb_sim.Engine.t) program =
  let machine = Machine.create ~ram_size:(4 * 1024 * 1024) () in
  Machine.load_program machine program;
  let result = Sb_sim.Engine.run engine ~max_insns:10_000_000 machine in
  (machine, result)

let check_halted result =
  Alcotest.(check bool)
    (Printf.sprintf "%s halted" result.Sb_sim.Run_result.engine)
    true
    (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted)

(* ------------------------------------------------------------------ *)
(* SBA guest programs                                                   *)
(* ------------------------------------------------------------------ *)

open Sb_asm.Assembler

let sba_insns insns = List.map (fun i -> Insn i) insns

(* Standard vector table: each 8-byte slot branches to a named handler. *)
let sba_vectors ~reset ~undef ~svc ~pabt ~dabt ~irq =
  let slot target = [ Insn (SI.B target); Insn SI.Nop ] in
  (Label "vectors" :: slot reset)
  @ slot undef @ slot svc @ slot pabt @ slot dabt @ slot irq

let sba_set_vbar =
  sba_insns (SI.la 0 "vectors" @ [ SI.Mcr (Sb_isa.Cregs.vbar, 0) ])



let test_sba_uart_hello () =
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ sba_insns
          (SI.li 1 Map.uart_base
          @ [
              SI.Movw (0, Char.code 'H');
              SI.Str (0, 1, 0);
              SI.Movw (0, Char.code 'i');
              SI.Str (0, 1, 0);
              SI.Halt;
            ]))
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check string) "uart" "Hi" (Sb_mem.Uart.contents machine.Machine.uart))
    sba_engines

let test_sba_loop_sum () =
  (* sum 1..100 into r3, store at 0x20000 *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ sba_insns
          ([ SI.Movw (2, 100); SI.Movw (3, 0) ]
          @ [ ])
      @ [ Label "loop" ]
      @ sba_insns
          [
            SI.Add (3, 3, SI.Rm 2);
            SI.Sub (2, 2, SI.Imm 1);
            SI.Cmp (2, SI.Imm 0);
            SI.Bcc (Uop.Ne, "loop");
          ]
      @ sba_insns (SI.li 1 0x20000 @ [ SI.Str (3, 1, 0); SI.Halt ]))
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      let v = Sb_mem.Phys_mem.read32 (Sb_mem.Bus.ram machine.Machine.bus) 0x20000 in
      Alcotest.(check int) "sum" 5050 v)
    sba_engines

let test_sba_svc_and_undef () =
  (* SVC handler increments r10 and returns; UNDEF handler skips the insn
     (ELR += 4) and increments r11. *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ] @ sba_set_vbar
      @ sba_insns
          [
            SI.Movw (10, 0);
            SI.Movw (11, 0);
            SI.Svc 1;
            SI.Udf;
            SI.Svc 2;
            SI.Halt;
          ]
      @ [ Label "svc_handler" ]
      @ sba_insns [ SI.Add (10, 10, SI.Imm 1); SI.Eret ]
      @ [ Label "undef_handler" ]
      @ sba_insns
          [
            SI.Add (11, 11, SI.Imm 1);
            SI.Mrc (0, Sb_isa.Cregs.elr);
            SI.Add (0, 0, SI.Imm 4);
            SI.Mcr (Sb_isa.Cregs.elr, 0);
            SI.Eret;
          ]
      @ sba_vectors ~reset:"start" ~undef:"undef_handler" ~svc:"svc_handler"
          ~pabt:"start" ~dabt:"start" ~irq:"start")
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check int) "svc count" 2 machine.Machine.cpu.Sb_sim.Cpu.regs.(10);
      Alcotest.(check int) "undef count" 1 machine.Machine.cpu.Sb_sim.Cpu.regs.(11);
      Alcotest.(check int) "svcs" 2
        (Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Svc_taken);
      Alcotest.(check int) "undefs" 1
        (Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Undef_insn))
    sba_engines

let test_sba_data_abort_mmu () =
  (* Host installs an identity section mapping for RAM and the device space,
     leaves 0x0080_0000 unmapped.  The guest enables the MMU, reads the
     unmapped address, and the data-abort handler stores a marker. *)
  let ttbr = 0x0010_0000 in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ] @ sba_set_vbar
      @ sba_insns
          (SI.li 0 ttbr
          @ [ SI.Mcr (Sb_isa.Cregs.ttbr, 0) ]
          @ [ SI.Movw (0, 1); SI.Mcr (Sb_isa.Cregs.sctlr, 0) ]
          @ SI.li 1 0x0080_0000
          @ [ SI.Ldr (2, 1, 0) ] (* faults *)
          @ [ SI.Halt ])
      @ [ Label "dabt_handler" ]
      @ sba_insns
          (SI.li 3 0x30000
          @ [
              SI.Movw (4, 0xD00D);
              SI.Str (4, 3, 0);
              SI.Mrc (5, Sb_isa.Cregs.far);  (* capture FAR *)
              SI.Str (5, 3, 4);
              SI.Mrc (0, Sb_isa.Cregs.elr);
              SI.Add (0, 0, SI.Imm 4);
              SI.Mcr (Sb_isa.Cregs.elr, 0);
              SI.Eret;
            ])
      @ sba_vectors ~reset:"start" ~undef:"start" ~svc:"start" ~pabt:"start"
          ~dabt:"dabt_handler" ~irq:"start")
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(4 * 1024 * 1024) () in
      Machine.load_program machine program;
      (* identity-map the first 4 MiB (RAM) as a section, kernel RW+X *)
      let ram = Sb_mem.Bus.ram machine.Machine.bus in
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index 0 * 4))
        (Sb_mmu.Pte.encode_section ~pa_base:0 ~ap:Sb_mmu.Access.Ap.kernel_only ~xn:false);
      let result = Sb_sim.Engine.run engine ~max_insns:1_000_000 machine in
      check_halted result;
      Alcotest.(check int) "marker" 0xD00D (Sb_mem.Phys_mem.read32 ram 0x30000);
      Alcotest.(check int) "far" 0x0080_0000 (Sb_mem.Phys_mem.read32 ram 0x30004);
      Alcotest.(check int) "one data abort" 1
        (Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Data_abort))
    sba_engines

let test_sba_tlbi_remap () =
  (* Micro-TLB shootdown: with the MMU on, the guest reads a page-mapped
     address twice (the second read is served from the DBT's flat-memory
     fast path), rewrites the L2 entry to point the same VA at a different
     physical page, executes TLBI for that VA, and reads again.  A stale
     micro-TLB entry surviving the invalidation would return the old
     page's value on the third read. *)
  let ttbr = 0x0010_0000 in
  let l2_base = 0x0011_0000 in
  let va = 0x0040_0000 in
  let page_a = 0x0005_0000 and page_b = 0x0005_1000 in
  let pte_b =
    Sb_mmu.Pte.encode_page ~pa_base:page_b ~ap:Sb_mmu.Access.Ap.kernel_only
      ~xn:true
  in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ sba_insns
          (SI.li 0 ttbr
          @ [ SI.Mcr (Sb_isa.Cregs.ttbr, 0) ]
          @ [ SI.Movw (0, 1); SI.Mcr (Sb_isa.Cregs.sctlr, 0) ]
          @ SI.li 5 va
          @ [ SI.Ldr (2, 5, 0) ] (* page A, slow walk fills the fast path *)
          @ [ SI.Ldr (6, 5, 0) ] (* page A again, fast-path hit *)
          (* remap the VA to page B by rewriting the (identity-mapped) L2
             entry, then shoot down the page *)
          @ SI.li 0 (l2_base + (Sb_mmu.Pte.l2_index va * 4))
          @ SI.li 1 pte_b
          @ [ SI.Str (1, 0, 0) ]
          @ [ SI.Tlbi 5 ]
          @ [ SI.Ldr (3, 5, 0) ] (* must observe page B *)
          @ SI.li 7 0x30000
          @ [ SI.Str (2, 7, 0); SI.Str (6, 7, 4); SI.Str (3, 7, 8); SI.Halt ]))
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(4 * 1024 * 1024) () in
      Machine.load_program machine program;
      let ram = Sb_mem.Bus.ram machine.Machine.bus in
      (* identity-map the first 1 MiB (code, scratch, the two physical
         pages), table-map the test VA to page A *)
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index 0 * 4))
        (Sb_mmu.Pte.encode_section ~pa_base:0 ~ap:Sb_mmu.Access.Ap.kernel_only
           ~xn:false);
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index va * 4))
        (Sb_mmu.Pte.encode_table ~l2_base);
      Sb_mem.Phys_mem.write32 ram
        (l2_base + (Sb_mmu.Pte.l2_index va * 4))
        (Sb_mmu.Pte.encode_page ~pa_base:page_a
           ~ap:Sb_mmu.Access.Ap.kernel_only ~xn:true);
      Sb_mem.Phys_mem.write32 ram page_a 0x1111;
      Sb_mem.Phys_mem.write32 ram page_b 0x2222;
      let result = Sb_sim.Engine.run engine ~max_insns:1_000_000 machine in
      check_halted result;
      let name = result.Sb_sim.Run_result.engine in
      Alcotest.(check int) (name ^ " first read, page A") 0x1111
        (Sb_mem.Phys_mem.read32 ram 0x30000);
      Alcotest.(check int) (name ^ " cached read, page A") 0x1111
        (Sb_mem.Phys_mem.read32 ram 0x30004);
      Alcotest.(check int) (name ^ " read after remap+tlbi, page B") 0x2222
        (Sb_mem.Phys_mem.read32 ram 0x30008))
    sba_engines

let test_sba_self_modifying_code () =
  (* The guest overwrites a MOVW instruction ahead of execution: engines with
     decode/translation caches must see the new encoding.  The target insn
     initially sets r5 := 1; the guest rewrites it to set r5 := 2 before
     executing it a second time. *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ sba_insns [ SI.Movw (7, 0) ] (* pass counter *)
      @ [ Label "again" ]
      @ [ Label "patch_site" ]
      @ sba_insns [ SI.Movw (5, 1) ]
      @ sba_insns
          [
            (* first pass: rewrite patch_site to movw r5, 2 and loop *)
            SI.Cmp (7, SI.Imm 0);
            SI.Bcc (Uop.Ne, "done");
            SI.Movw (7, 1);
          ]
      @ sba_insns SI.(la 0 "patch_site")
      @ sba_insns
          (let patched =
             SI.encode_word
               ~resolve:(fun _ -> assert false)
               ~pc:0 (SI.Movw (5, 2))
           in
           SI.li 1 patched @ [ SI.Str (1, 0, 0); SI.B "again" ])
      @ [ Label "done" ]
      @ sba_insns [ SI.Halt ])
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check int) "patched value seen" 2
        machine.Machine.cpu.Sb_sim.Cpu.regs.(5))
    sba_engines

let test_sba_software_interrupt () =
  (* Enable the softint line, trigger it via the INTC, and expect the IRQ
     handler to run (it acks the line and sets r9). *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ] @ sba_set_vbar
      @ sba_insns
          (SI.li 1 Map.intc_base
          @ [
              SI.Movw (0, 1);
              SI.Str (0, 1, 4);     (* ENABLE = 1 *)
              SI.Movw (9, 0);
              (* unmask IRQs: write SPSR-style bits via cop? IRQs are enabled
                 through ERET; here we use the convention that the reset
                 state has them masked, so enable via a small trampoline. *)
              SI.Movw (0, 3);       (* kernel mode + irq enable *)
              SI.Mcr (Sb_isa.Cregs.spsr, 0);
            ]
          @ SI.la 0 "with_irqs"
          @ [ SI.Mcr (Sb_isa.Cregs.elr, 0); SI.Eret ])
      @ [ Label "with_irqs" ]
      @ sba_insns
          (SI.li 1 Map.intc_base
          @ [ SI.Movw (0, 1); SI.Str (0, 1, 8) (* SOFTINT_SET: raise the line *) ])
      (* spin until the handler runs: block-boundary engines (DBT) only
         deliver IRQs between blocks, so bare-metal code must not fall
         straight into HALT *)
      @ [ Label "wait" ]
      @ sba_insns
          [
            SI.Cmp (9, SI.Imm 0x77);
            SI.Bcc (Uop.Ne, "wait");
            SI.Halt;
          ]
      @ [ Label "irq_handler" ]
      @ sba_insns
          (SI.li 1 Map.intc_base
          @ [
              SI.Movw (0, 1);
              SI.Str (0, 1, 0xC);   (* ACK *)
              SI.Movw (9, 0x77);
              SI.Eret;
            ])
      @ sba_vectors ~reset:"start" ~undef:"start" ~svc:"start" ~pabt:"start"
          ~dabt:"start" ~irq:"irq_handler")
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check int) "handler ran" 0x77 machine.Machine.cpu.Sb_sim.Cpu.regs.(9);
      Alcotest.(check int) "irq taken" 1
        (Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Irq_taken))
    sba_engines

(* ------------------------------------------------------------------ *)
(* VLX guest programs                                                   *)
(* ------------------------------------------------------------------ *)

let vlx_insns insns = List.map (fun i -> Insn i) insns

let test_vlx_uart_hello () =
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ vlx_insns
          [
            VI.Movi (1, Map.uart_base);
            VI.Movi (0, Char.code 'V');
            VI.Store (0, 1, 0);
            VI.Movi (0, Char.code 'x');
            VI.Store (0, 1, 0);
            VI.Halt;
          ])
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check string) "uart" "Vx" (Sb_mem.Uart.contents machine.Machine.uart))
    vlx_engines

let test_vlx_loop_and_call () =
  (* call a function that doubles r0, in a loop *)
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ vlx_insns [ VI.Movi (0, 1); VI.Movi (2, 5) ]
      @ [ Label "loop" ]
      @ vlx_insns
          [
            VI.Call "double";
            VI.Alu_ri (Uop.Sub, 2, 2, 1);
            VI.Cmp_ri (2, 0);
            VI.Jcc (Uop.Ne, "loop");
            VI.Movi (1, 0x20000);
            VI.Store (0, 1, 0);
            VI.Halt;
          ]
      @ [ Label "double" ]
      @ vlx_insns [ VI.Alu_rr (Uop.Add, 0, 0, 0); VI.Jmp_r VI.lr ])
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      let v = Sb_mem.Phys_mem.read32 (Sb_mem.Bus.ram machine.Machine.bus) 0x20000 in
      Alcotest.(check int) "2^5" 32 v)
    vlx_engines

let test_vlx_ud2_skip () =
  (* UD2 handler must be able to skip exactly two bytes. *)
  let slot target = [ Insn (VI.Jmp target); Insn VI.Nop; Insn VI.Nop; Insn VI.Nop ] in
  let vectors =
    (* vector slots are 8 bytes apart; Jmp is 5 bytes + 3 nops = 8 *)
    (Label "vectors" :: slot "start")
    @ slot "undef_handler" @ slot "start" @ slot "start" @ slot "start" @ slot "start"
  in
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ vlx_insns
          [
            VI.Movi_sym (0, "vectors");
            VI.Cpw (Sb_isa.Cregs.vbar, 0);
            VI.Movi (3, 0);
            VI.Ud2;
            VI.Alu_ri (Uop.Add, 3, 3, 100);
            VI.Halt;
          ]
      @ [ Label "undef_handler" ]
      @ vlx_insns
          [
            VI.Alu_ri (Uop.Add, 3, 3, 1);
            VI.Cpr (0, Sb_isa.Cregs.elr);
            VI.Alu_ri (Uop.Add, 0, 0, 2);
            VI.Cpw (Sb_isa.Cregs.elr, 0);
            VI.Eret;
          ]
      @ vectors)
  in
  List.iter
    (fun engine ->
      let machine, result = run_program ~engine program in
      check_halted result;
      Alcotest.(check int) "handler + fallthrough" 101
        machine.Machine.cpu.Sb_sim.Cpu.regs.(3))
    vlx_engines


(* ------------------------------------------------------------------ *)
(* Cross-engine equivalence on randomised programs                     *)
(* ------------------------------------------------------------------ *)

(* Architectural outcome of a run: everything engines must agree on. *)
type outcome = {
  regs : int list;
  flags : bool * bool * bool * bool;
  scratch : string;
  arch_counters : (string * int) list;
  stop_halted : bool;
}

let outcome_of machine result nregs =
  let cpu = machine.Machine.cpu in
  let ram = Sb_mem.Bus.ram machine.Machine.bus in
  let perf = result.Sb_sim.Run_result.perf in
  {
    regs = Array.to_list (Array.sub cpu.Sb_sim.Cpu.regs 0 nregs);
    flags =
      ( cpu.Sb_sim.Cpu.flag_n,
        cpu.Sb_sim.Cpu.flag_z,
        cpu.Sb_sim.Cpu.flag_c,
        cpu.Sb_sim.Cpu.flag_v );
    scratch =
      Bytes.to_string (Sb_mem.Phys_mem.blit_out ram ~addr:0x40000 ~len:2048);
    arch_counters =
      List.map
        (fun c -> (Sb_sim.Perf.to_string c, Sb_sim.Perf.get perf c))
        [
          Sb_sim.Perf.Insns;
          Sb_sim.Perf.Loads;
          Sb_sim.Perf.Stores;
          Sb_sim.Perf.Branch_direct;
          Sb_sim.Perf.Branch_indirect;
          Sb_sim.Perf.Branch_taken;
          Sb_sim.Perf.Svc_taken;
          Sb_sim.Perf.Undef_insn;
          Sb_sim.Perf.Data_abort;
          Sb_sim.Perf.Exceptions_total;
        ];
    stop_halted = result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted;
  }

(* Random-but-always-terminating SBA program from a seed. *)
let random_sba_program seed =
  let rng = Sb_util.Xorshift.create ~seed in
  let n_chunks = 20 + Sb_util.Xorshift.int rng 60 in
  let body = ref [] in
  let add items = body := !body @ items in
  let alu_ops =
    [|
      (fun a b c -> SI.Add (a, b, SI.Rm c));
      (fun a b c -> SI.Sub (a, b, SI.Rm c));
      (fun a b c -> SI.And_ (a, b, c));
      (fun a b c -> SI.Orr (a, b, c));
      (fun a b c -> SI.Xor (a, b, c));
      (fun a b c -> SI.Mul (a, b, c));
      (fun a b c -> SI.Lsl (a, b, SI.Rm c));
      (fun a b c -> SI.Lsr (a, b, SI.Rm c));
    |]
  in
  let conds = [| Uop.Eq; Uop.Ne; Uop.Lt; Uop.Ge; Uop.Ltu; Uop.Geu |] in
  let reg () = Sb_util.Xorshift.int rng 10 in
  for i = 0 to n_chunks - 1 do
    match Sb_util.Xorshift.int rng 11 with
    | 0 | 1 | 2 | 3 ->
      let f = alu_ops.(Sb_util.Xorshift.int rng (Array.length alu_ops)) in
      add (sba_insns [ f (reg ()) (reg ()) (reg ()) ])
    | 4 ->
      add (sba_insns [ SI.Add (reg (), reg (), SI.Imm (Sb_util.Xorshift.int rng 4096 - 2048)) ])
    | 5 ->
      (* guarded short skip *)
      let skip = Printf.sprintf "skip%d" i in
      let cond = conds.(Sb_util.Xorshift.int rng (Array.length conds)) in
      add
        (sba_insns [ SI.Cmp (reg (), SI.Rm (reg ())); SI.Bcc (cond, skip) ]
        @ sba_insns [ SI.Xor (reg (), reg (), reg ()) ]
        @ [ Label skip ])
    | 6 ->
      let off = Sb_util.Xorshift.int rng 500 * 4 in
      add (sba_insns [ SI.Str (reg (), 12, off) ])
    | 7 ->
      let off = Sb_util.Xorshift.int rng 500 * 4 in
      add (sba_insns [ SI.Ldr (reg (), 12, off) ])
    | 8 -> add (sba_insns [ SI.Svc (i land 0xFF) ])
    | 9 ->
      let off = Sb_util.Xorshift.int rng 500 * 4 in
      add (sba_insns [ SI.Strb (reg (), 12, off + (i land 3)) ])
    | _ ->
      (* bounded two-block loop with a fixed trip count: hot enough for the
         trace-enabled DBT to stitch a superblock and run it repeatedly *)
      let top = Printf.sprintf "top%d" i in
      let mid = Printf.sprintf "mid%d" i in
      let f = alu_ops.(Sb_util.Xorshift.int rng (Array.length alu_ops)) in
      let g = alu_ops.(Sb_util.Xorshift.int rng (Array.length alu_ops)) in
      let iters = 6 + Sb_util.Xorshift.int rng 10 in
      add
        (sba_insns [ SI.Movw (13, iters) ]
        @ [ Label top ]
        @ sba_insns [ f (reg ()) (reg ()) (reg ()); SI.B mid ]
        @ [ Label mid ]
        @ sba_insns
            [
              g (reg ()) (reg ()) (reg ());
              SI.Sub (13, 13, SI.Imm 1);
              SI.Cmp (13, SI.Imm 0);
              SI.Bcc (Uop.Ne, top);
            ])
  done;
  let init =
    List.concat
      (List.map (fun r -> SI.li r (Sb_util.Xorshift.u32 rng)) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])
  in
  SI.Asm.assemble ~base:0 ~entry:"start"
    ([ Label "start" ] @ sba_set_vbar
    @ sba_insns init
    @ sba_insns (SI.li 12 0x40000)
    @ !body
    @ sba_insns [ SI.Halt ]
    @ [ Label "svc_handler" ]
    @ sba_insns [ SI.Add (11, 11, SI.Imm 1); SI.Eret ]
    @ sba_vectors ~reset:"start" ~undef:"svc_handler" ~svc:"svc_handler"
        ~pabt:"start" ~dabt:"start" ~irq:"start")

let prop_cross_engine_equivalence =
  QCheck.Test.make ~name:"all engines agree on random programs" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let program = random_sba_program (seed + 1) in
      let outcomes =
        List.map
          (fun engine ->
            let machine, result = run_program ~engine program in
            (Sb_sim.Engine.name engine, outcome_of machine result 14))
          sba_engines
      in
      match outcomes with
      | [] -> true
      | (_, reference) :: rest ->
        List.for_all
          (fun (engine_name, o) ->
            if o = reference then true
            else
              QCheck.Test.fail_reportf "engine %s diverges on seed %d" engine_name seed)
          rest)

(* Random VLX programs: exercises the variable-length decoders the same way. *)
let random_vlx_program seed =
  let rng = Sb_util.Xorshift.create ~seed in
  let n = 20 + Sb_util.Xorshift.int rng 60 in
  let body = ref [] in
  let add items = body := !body @ items in
  let reg () = Sb_util.Xorshift.int rng 4 in
  let ops = [| Uop.Add; Uop.Sub; Uop.And_; Uop.Orr; Uop.Xor; Uop.Mul; Uop.Lsl; Uop.Lsr |] in
  for i = 0 to n - 1 do
    match Sb_util.Xorshift.int rng 8 with
    | 0 | 1 | 2 ->
      let op = ops.(Sb_util.Xorshift.int rng (Array.length ops)) in
      add (vlx_insns [ VI.Alu_rr (op, reg (), reg (), reg ()) ])
    | 3 ->
      let op = ops.(Sb_util.Xorshift.int rng (Array.length ops)) in
      add (vlx_insns [ VI.Alu_ri (op, reg (), reg (), Sb_util.Xorshift.int rng 100000) ])
    | 4 ->
      let skip = Printf.sprintf "vskip%d" i in
      add
        (vlx_insns [ VI.Cmp_rr (reg (), reg ()); VI.Jcc (Uop.Ne, skip) ]
        @ vlx_insns [ VI.Alu_ri (Uop.Xor, reg (), reg (), 0xFF) ]
        @ [ Label skip ])
    | 5 -> add (vlx_insns [ VI.Store (reg (), 4, Sb_util.Xorshift.int rng 500 * 4) ])
    | 6 -> add (vlx_insns [ VI.Load (reg (), 4, Sb_util.Xorshift.int rng 500 * 4) ])
    | _ -> add (vlx_insns [ VI.Svc (i land 0xFF) ])
  done;
  let vec_slot target = [ Insn (VI.Jmp target); Insn VI.Nop; Insn VI.Nop; Insn VI.Nop ] in
  VI.Asm.assemble ~base:0 ~entry:"start"
    ([ Label "start" ]
    @ vlx_insns [ VI.Movi_sym (0, "vectors"); VI.Cpw (Sb_isa.Cregs.vbar, 0) ]
    @ vlx_insns
        (List.concat
           (List.map (fun r -> [ VI.Movi (r, Sb_util.Xorshift.u32 rng) ]) [ 0; 1; 2; 3 ]))
    @ vlx_insns [ VI.Movi (4, 0x40000) ]
    @ !body
    @ vlx_insns [ VI.Halt ]
    @ [ Label "vsvc" ]
    @ vlx_insns [ VI.Alu_ri (Uop.Add, 7, 7, 1); VI.Eret ]
    @ (Label "vectors" :: vec_slot "start")
    @ vec_slot "vsvc" @ vec_slot "vsvc" @ vec_slot "start" @ vec_slot "start"
    @ vec_slot "start")

let prop_cross_engine_equivalence_vlx =
  QCheck.Test.make ~name:"vlx engines agree on random programs" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let program = random_vlx_program (seed + 7) in
      let outcomes =
        List.map
          (fun engine ->
            let machine, result = run_program ~engine program in
            (Sb_sim.Engine.name engine, outcome_of machine result 8))
          vlx_engines
      in
      match outcomes with
      | [] -> true
      | (_, reference) :: rest ->
        List.for_all
          (fun (engine_name, o) ->
            if o = reference then true
            else
              QCheck.Test.fail_reportf "engine %s diverges on seed %d" engine_name seed)
          rest)

let test_insn_limit () =
  (* an infinite loop must stop at the instruction limit on every engine *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      [ Label "start"; Insn (SI.B "start") ]
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(1 lsl 20) () in
      Machine.load_program machine program;
      let result = Sb_sim.Engine.run engine ~max_insns:5_000 machine in
      Alcotest.(check bool)
        (Sb_sim.Engine.name engine ^ " hits limit")
        true
        (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Insn_limit);
      let insns = Sb_sim.Run_result.insns result in
      Alcotest.(check bool)
        (Printf.sprintf "%s executed about the limit (%d)" (Sb_sim.Engine.name engine) insns)
        true
        (insns >= 5_000 && insns < 6_000))
    sba_engines

let test_wfi_deadlock () =
  (* WFI with no interrupt source armed can never wake *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      [ Label "start"; Insn SI.Wfi; Insn SI.Halt ]
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(1 lsl 20) () in
      Machine.load_program machine program;
      let result = Sb_sim.Engine.run engine ~max_insns:100_000 machine in
      Alcotest.(check bool)
        (Sb_sim.Engine.name engine ^ " deadlocks")
        true
        (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Wfi_deadlock))
    sba_engines

let test_wfi_timer_wakeup () =
  (* WFI with an armed timer wakes up and continues *)
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ sba_insns
          (SI.li 1 Map.intc_base
          @ [ SI.Movw (0, 2); SI.Str (0, 1, 4) ]  (* enable timer line *)
          @ SI.li 1 Map.timer_base
          @ [
              SI.Movw (0, 1);
              SI.Str (0, 1, 8);    (* ctrl: irq enable *)
              SI.Movw (0, 2000);
              SI.Str (0, 1, 4);    (* compare: fire in ~2000 retired insns *)
              SI.Wfi;
              SI.Movw (9, 0x5E7);
              SI.Halt;
            ]))
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(1 lsl 20) () in
      Machine.load_program machine program;
      let result = Sb_sim.Engine.run engine ~max_insns:100_000 machine in
      Alcotest.(check bool)
        (Sb_sim.Engine.name engine ^ " woke and halted")
        true
        (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
      Alcotest.(check int)
        (Sb_sim.Engine.name engine ^ " resumed after wfi")
        0x5E7 machine.Machine.cpu.Sb_sim.Cpu.regs.(9))
    sba_engines

let test_vlx_page_straddling_insn () =
  (* a 6-byte MOVI that starts 3 bytes before a page boundary: engines must
     fetch across the page, and the DBT must track both physical pages so a
     store into the *second* page invalidates the block *)
  let open Sb_asm.Assembler in
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ vlx_insns [ VI.Movi (2, 0); VI.Movi (3, 2) ]  (* r3: passes *)
      @ [ Label "again" ]
      @ [ Org 4093 ]  (* Movi is 6 bytes: 4093..4098 straddles the page *)
      @ [ Label "straddle" ]
      @ vlx_insns [ VI.Movi (0, 0x11223344) ]
      @ vlx_insns
          [
            VI.Alu_rr (Uop.Add, 2, 2, 0);
            (* second pass? *)
            VI.Alu_ri (Uop.Sub, 3, 3, 1);
            VI.Cmp_ri (3, 0);
            VI.Jcc (Uop.Eq, "done");
            (* patch the immediate's high byte, which lives on page 2 *)
            VI.Movi (1, 4098);
            VI.Movi (4, 0x55);
            VI.Storeb (4, 1, 0);
            VI.Jmp "again";
          ]
      @ [ Label "done" ]
      @ vlx_insns [ VI.Halt ])
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(1 lsl 20) () in
      Machine.load_program machine program;
      let result = Sb_sim.Engine.run engine ~max_insns:100_000 machine in
      Alcotest.(check bool)
        (Sb_sim.Engine.name engine ^ " halted")
        true
        (result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted);
      (* pass 1 adds 0x11223344, pass 2 adds the patched 0x55223344 *)
      Alcotest.(check int)
        (Sb_sim.Engine.name engine ^ " saw the patched straddler")
        ((0x11223344 + 0x55223344) land 0xFFFF_FFFF)
        machine.Machine.cpu.Sb_sim.Cpu.regs.(2))
    vlx_engines

(* The three permission faults, each on a page whose translation is
   already cached from a permitted access: a kernel store to a kernel_read
   page, a user-privilege LDRT from a kernel_only page (both data aborts,
   ELR at the access) and a fetch from an xn page (a prefetch abort, ELR
   and FAR at the page).  Every engine reports the same vector, ESR, FAR
   and ELR.  How each finds the fault differs by technique, and the walk
   counts pin it: interp, virt and native fault on the TLB hit, the DBT's
   data paths re-walk on a permission miss as QEMU does (its fetch path
   faults on the hit), and detailed's fetch misses in its separate I-TLB. *)
let test_sba_permission_faults () =
  let ttbr = 0x0010_0000 and l2_base = 0x0011_0000 and out = 0x30000 in
  let ro_page = 0x0040_0000 and kernel_page = 0x0040_1000 and xn_page = 0x0040_2000 in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ] @ sba_set_vbar
      @ sba_insns
          (SI.li 0 ttbr
          @ [ SI.Mcr (Sb_isa.Cregs.ttbr, 0); SI.Movw (0, 1); SI.Mcr (Sb_isa.Cregs.sctlr, 0) ]
          @ SI.li 12 out @ [ SI.Movw (11, 0) ]
          @ SI.li 5 ro_page
          @ [ SI.Ldr (2, 5, 0) ])
      @ [ Label "ro_store" ]
      @ sba_insns (SI.Str (2, 5, 0) :: SI.li 5 kernel_page @ [ SI.Ldr (2, 5, 0) ])
      @ [ Label "user_load" ]
      @ sba_insns
          ((SI.Ldrt (2, 5, 0) :: SI.li 5 xn_page)
          @ [ SI.Ldr (2, 5, 0) ] @ SI.la 9 "fetched" @ [ SI.Br 5 ])
      @ [ Label "fetched" ]
      @ sba_insns [ SI.Halt ]
      (* record (vector, ESR, FAR, ELR) at out + r11 *)
      @ [ Label "dabt_handler" ]
      @ sba_insns [ SI.Movw (8, 1); SI.B "record" ]
      @ [ Label "pabt_handler" ]
      @ sba_insns [ SI.Movw (8, 2) ]
      @ [ Label "record" ]
      @ sba_insns
          [
            SI.Add (7, 12, SI.Rm 11);
            SI.Str (8, 7, 0);
            SI.Mrc (6, Sb_isa.Cregs.esr);
            SI.Str (6, 7, 4);
            SI.Mrc (6, Sb_isa.Cregs.far);
            SI.Str (6, 7, 8);
            SI.Mrc (6, Sb_isa.Cregs.elr);
            SI.Str (6, 7, 12);
            SI.Add (11, 11, SI.Imm 16);
            SI.Cmp (8, SI.Imm 1);
            SI.Bcc (Uop.Eq, "skip");
            (* a prefetch abort returns to [fetched] *)
            SI.Mcr (Sb_isa.Cregs.elr, 9);
            SI.Eret;
          ]
      @ [ Label "skip" ]
      @ sba_insns
          [
            SI.Mrc (6, Sb_isa.Cregs.elr);
            SI.Add (6, 6, SI.Imm 4);
            SI.Mcr (Sb_isa.Cregs.elr, 6);
            SI.Eret;
          ]
      @ sba_vectors ~reset:"start" ~undef:"start" ~svc:"start" ~pabt:"pabt_handler"
          ~dabt:"dabt_handler" ~irq:"start")
  in
  let expected =
    [
      (1, Sb_sim.Exn.Cause.data_permission, ro_page, Sb_asm.Program.symbol program "ro_store");
      ( 1,
        Sb_sim.Exn.Cause.data_permission,
        kernel_page,
        Sb_asm.Program.symbol program "user_load" );
      (2, Sb_sim.Exn.Cause.prefetch_permission, xn_page, xn_page);
    ]
  in
  (* walks per engine, in [sba_engines] order *)
  let walks = [ 8; 7; 7; 7; 7; 6; 5; 5 ] in
  List.iter2
    (fun engine walks ->
      let machine = Machine.create ~ram_size:(4 * 1024 * 1024) () in
      Machine.load_program machine program;
      let ram = Sb_mem.Bus.ram machine.Machine.bus in
      (* the first 1 MiB identity-mapped as a section, kernel RW+X; the
         three test pages table-mapped *)
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index 0 * 4))
        (Sb_mmu.Pte.encode_section ~pa_base:0 ~ap:Sb_mmu.Access.Ap.kernel_only ~xn:false);
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index ro_page * 4))
        (Sb_mmu.Pte.encode_table ~l2_base);
      List.iter
        (fun (va, pa_base, ap, xn) ->
          Sb_mem.Phys_mem.write32 ram
            (l2_base + (Sb_mmu.Pte.l2_index va * 4))
            (Sb_mmu.Pte.encode_page ~pa_base ~ap ~xn))
        [
          (ro_page, 0x0005_0000, Sb_mmu.Access.Ap.kernel_read, false);
          (kernel_page, 0x0005_1000, Sb_mmu.Access.Ap.kernel_only, false);
          (xn_page, 0x0005_2000, Sb_mmu.Access.Ap.kernel_only, true);
        ];
      let result = Sb_sim.Engine.run engine ~max_insns:100_000 machine in
      let name = Sb_sim.Engine.name engine in
      check_halted result;
      List.iteri
        (fun i (vector, esr, far, elr) ->
          let word k = Sb_mem.Phys_mem.read32 ram (out + (16 * i) + (4 * k)) in
          let check what = Alcotest.(check int) (Printf.sprintf "%s fault %d %s" name i what) in
          check "vector" vector (word 0);
          check "ESR" esr (word 1);
          check "FAR" far (word 2);
          check "ELR" elr (word 3))
        expected;
      let perf = result.Sb_sim.Run_result.perf in
      Alcotest.(check (list int))
        (name ^ " data aborts, prefetch aborts, walks")
        [ 2; 1; walks ]
        [
          Sb_sim.Perf.get perf Sb_sim.Perf.Data_abort;
          Sb_sim.Perf.get perf Sb_sim.Perf.Prefetch_abort;
          Sb_sim.Perf.get perf Sb_sim.Perf.Mmu_walks;
        ])
    sba_engines walks

let test_vlx_straddling_prefetch_abort () =
  (* a 6-byte MOVI at 0x1FFD whose tail lies on the unmapped page at
     0x2000: the prefetch abort reports the tail byte in FAR and returns to
     the instruction's first byte, so an ERET after mapping the page
     re-executes it whole *)
  let ttbr = 0x0010_0000 and l2_base = 0x0011_0000 and out = 0x1800 in
  let slot target = [ Insn (VI.Jmp target); Insn VI.Nop; Insn VI.Nop; Insn VI.Nop ] in
  let program =
    VI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ vlx_insns
          [
            VI.Movi_sym (0, "vectors");
            VI.Cpw (Sb_isa.Cregs.vbar, 0);
            VI.Movi (0, ttbr);
            VI.Cpw (Sb_isa.Cregs.ttbr, 0);
            VI.Movi (0, 1);
            VI.Cpw (Sb_isa.Cregs.sctlr, 0);
            VI.Jmp "straddle";
          ]
      @ [ Label "pabt_handler" ]
      @ vlx_insns
          [
            VI.Cpr (1, Sb_isa.Cregs.elr);
            VI.Cpr (2, Sb_isa.Cregs.far);
            VI.Movi (3, out);
            VI.Store (1, 3, 0);
            VI.Store (2, 3, 4);
            VI.Halt;
          ]
      @ (Label "vectors" :: slot "start")
      @ slot "start" @ slot "start" @ slot "pabt_handler" @ slot "start" @ slot "start"
      @ [ Org 0x1FFD; Label "straddle" ]
      @ vlx_insns [ VI.Movi (0, 0x11223344); VI.Halt ])
  in
  List.iter
    (fun engine ->
      let machine = Machine.create ~ram_size:(4 * 1024 * 1024) () in
      Machine.load_program machine program;
      let ram = Sb_mem.Bus.ram machine.Machine.bus in
      (* pages 0x0000 and 0x1000 identity-mapped, 0x2000 left unmapped *)
      Sb_mem.Phys_mem.write32 ram
        (ttbr + (Sb_mmu.Pte.l1_index 0 * 4))
        (Sb_mmu.Pte.encode_table ~l2_base);
      List.iter
        (fun va ->
          Sb_mem.Phys_mem.write32 ram
            (l2_base + (Sb_mmu.Pte.l2_index va * 4))
            (Sb_mmu.Pte.encode_page ~pa_base:va ~ap:Sb_mmu.Access.Ap.kernel_only
               ~xn:false))
        [ 0x0000; 0x1000 ];
      let result = Sb_sim.Engine.run engine ~max_insns:100_000 machine in
      let name = Sb_sim.Engine.name engine in
      check_halted result;
      Alcotest.(check int) (name ^ " ELR") 0x1FFD (Sb_mem.Phys_mem.read32 ram out);
      Alcotest.(check int) (name ^ " FAR") 0x2002 (Sb_mem.Phys_mem.read32 ram (out + 4));
      Alcotest.(check int) (name ^ " one prefetch abort") 1
        (Sb_sim.Perf.get result.Sb_sim.Run_result.perf Sb_sim.Perf.Prefetch_abort))
    vlx_engines

(* Randomised self-modifying code: a patch area of NOPs (own page) ending in
   RET; each round the guest overwrites one random slot with a random
   register-setting instruction (encoded host-side and embedded as data),
   then calls the area.  Translation caches must never serve stale code:
   every engine has to agree on the final register sums. *)
let random_smc_program seed =
  let rng = Sb_util.Xorshift.create ~seed in
  let slots = 12 in
  let rounds = 24 in
  let patch_words =
    (* instructions we might patch in: add r<k>, r<k>, #imm *)
    List.init rounds (fun _ ->
        let r = Sb_util.Xorshift.int rng 4 in
        let imm = 1 + Sb_util.Xorshift.int rng 100 in
        SI.encode_word ~resolve:(fun _ -> assert false) ~pc:0 (SI.Add (r, r, SI.Imm imm)))
  in
  let chosen_slots = List.init rounds (fun _ -> Sb_util.Xorshift.int rng slots) in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      (* r8 = word table base, r9 = slot table base, r7 = round counter *)
      @ sba_insns (SI.la 8 "words" @ SI.la 9 "slots" @ [ SI.Movw (7, rounds) ])
      @ [ Label "round" ]
      @ sba_insns
          ([
             (* load the patch word and its slot index *)
             SI.Ldr (0, 8, 0);
             SI.Ldr (1, 9, 0);
             SI.Add (8, 8, SI.Imm 4);
             SI.Add (9, 9, SI.Imm 4);
             SI.Lsl (1, 1, SI.Imm 2);
           ]
          @ SI.la 10 "area"
          @ [
              SI.Add (1, 1, SI.Rm 10);
              SI.Str (0, 1, 0);
              (* run the freshly patched area *)
              SI.Bl "area";
              SI.Sub (7, 7, SI.Imm 1);
              SI.Cmp (7, SI.Imm 0);
              SI.Bcc (Uop.Ne, "round");
              SI.Halt;
            ])
      @ [ Align 4; Label "words" ]
      @ List.map (fun w -> Word w) patch_words
      @ [ Label "slots" ]
      @ List.map (fun s -> Word s) chosen_slots
      @ [ Align 4096; Label "area" ]
      @ sba_insns (List.init slots (fun _ -> SI.Nop))
      @ sba_insns [ SI.Br 14 ])
  in
  program

let prop_smc_equivalence =
  QCheck.Test.make ~name:"self-modifying code agrees across engines" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let program = random_smc_program (seed + 3) in
      let outcomes =
        List.map
          (fun engine ->
            let machine, result = run_program ~engine program in
            ( Sb_sim.Engine.name engine,
              ( Array.to_list (Array.sub machine.Machine.cpu.Sb_sim.Cpu.regs 0 5),
                result.Sb_sim.Run_result.stop = Sb_sim.Run_result.Halted ) ))
          sba_engines
      in
      match outcomes with
      | [] -> true
      | (_, reference) :: rest ->
        List.for_all
          (fun (engine_name, o) ->
            if o = reference then true
            else QCheck.Test.fail_reportf "engine %s diverges on smc seed %d" engine_name seed)
          rest)

let () =
  Alcotest.run "engines"
    [
      ( "sba",
        [
          Alcotest.test_case "uart hello" `Quick test_sba_uart_hello;
          Alcotest.test_case "loop sum" `Quick test_sba_loop_sum;
          Alcotest.test_case "svc/undef" `Quick test_sba_svc_and_undef;
          Alcotest.test_case "mmu data abort" `Quick test_sba_data_abort_mmu;
          Alcotest.test_case "tlbi remap shootdown" `Quick test_sba_tlbi_remap;
          Alcotest.test_case "self-modifying code" `Quick test_sba_self_modifying_code;
          Alcotest.test_case "software interrupt" `Quick test_sba_software_interrupt;
        ] );
      ( "vlx",
        [
          Alcotest.test_case "uart hello" `Quick test_vlx_uart_hello;
          Alcotest.test_case "loop and call" `Quick test_vlx_loop_and_call;
          Alcotest.test_case "ud2 skip" `Quick test_vlx_ud2_skip;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "insn limit" `Quick test_insn_limit;
          Alcotest.test_case "wfi deadlock" `Quick test_wfi_deadlock;
          Alcotest.test_case "wfi timer wakeup" `Quick test_wfi_timer_wakeup;
          Alcotest.test_case "vlx page-straddling insn" `Quick
            test_vlx_page_straddling_insn;
          Alcotest.test_case "vlx straddling prefetch abort" `Quick
            test_vlx_straddling_prefetch_abort;
          Alcotest.test_case "sba permission faults" `Quick test_sba_permission_faults;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cross_engine_equivalence;
            prop_cross_engine_equivalence_vlx;
            prop_smc_equivalence;
          ] );
    ]
