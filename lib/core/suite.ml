open Pasm

let add r a b = Alu (Sb_isa.Uop.Add, r, a, b)
let sub r a b = Alu (Sb_isa.Uop.Sub, r, a, b)
let xor r a b = Alu (Sb_isa.Uop.Xor, r, a, b)

let chain_length = 16

(* ------------------------------------------------------------------ *)
(* Code generation                                                      *)
(* ------------------------------------------------------------------ *)

(* A chain of tiny tail-calling functions plus, when some benchmark actually
   loads from it, an address table.  Shared by the Small Blocks benchmark and,
   with page-aligned placement, by the control-flow benchmarks. *)
let chain ?(force_table = false) ~prefix ~own_pages ~indirect () =
  let fn i = Printf.sprintf "%s_fn%d" prefix i in
  let table = prefix ^ "_table" in
  let functions =
    (if own_pages then [] else [ Align 4096 ])
    @ List.concat
        (List.init chain_length (fun i ->
             let placement = if own_pages then [ Align 4096 ] else [] in
             let body =
               if i = chain_length - 1 then
                 if indirect then [ add v1 v1 (I 1); Ret ]
                 else [ add v1 v1 (I 1); Ret ]
               else if indirect then
                 [
                   add v1 v1 (I 1);
                   La (v2, table);
                   Load (W32, v2, v2, 4 * (i + 1));
                   Jmp_reg v2;
                 ]
               else [ add v1 v1 (I 1); Jmp (fn (i + 1)) ]
             in
             placement @ [ L (fn i) ] @ body))
    @
    if indirect || force_table then
      [ Align 4; L table ] @ List.init chain_length (fun i -> Word_sym (fn i))
    else []
  in
  (functions, fn 0, table)

let small_blocks =
  let body ~support:_ ~platform:_ =
    let functions, fn0, table =
      chain ~force_table:true ~prefix:"sb" ~own_pages:false ~indirect:false ()
    in
    {
      Bench.empty_body with
      Bench.kernel =
        [
          (* rewrite the first word of every function to force the simulator
             to regenerate code (also exercises self-modifying-code
             handling), then run the chain *)
          La (v0, table);
          Li (v2, chain_length);
          L "sb_rw";
          Load (W32, v1, v0, 0);
          Load (W32, v3, v1, 0);
          Store (W32, v3, v1, 0);
          add v0 v0 (I 4);
          sub v2 v2 (I 1);
          Cmp (v2, I 0);
          Br (Sb_isa.Uop.Ne, "sb_rw");
          Li (v1, 0);
          Call fn0;
        ];
      functions;
    }
  in
  {
    Bench.name = "Small Blocks";
    category = Category.Code_generation;
    description =
      "many short tail-calling functions; every function's first word is \
       rewritten each iteration to invalidate cached translations";
    default_iters = 100_000;
    ops_per_iter = chain_length;
    platform_specific = false;
    body;
  }

let large_block_insns = 192

let large_blocks =
  let body ~support:_ ~platform:(p : Platform.t) =
    let scratch = p.Platform.scratch_base in
    let ops =
      List.concat
        (List.init (large_block_insns / 2) (fun _ ->
             [ add v1 v1 (R v2); xor v2 v2 (R v1) ]))
    in
    {
      Bench.empty_body with
      Bench.setup = [];
      kernel =
        [
          (* invalidate the block, reload the inputs from volatile cells,
             execute the block, store the results back *)
          La (v0, "lb_block");
          Load (W32, v1, v0, 0);
          Store (W32, v1, v0, 0);
          Li (v0, scratch);
          Load (W32, v1, v0, 0);
          Load (W32, v2, v0, 4);
          Call "lb_block";
          Li (v0, scratch);
          Store (W32, v1, v0, 8);
          Store (W32, v2, v0, 12);
        ];
      functions = [ Align 4096; L "lb_block" ] @ ops @ [ Ret ];
    }
  in
  {
    Bench.name = "Large Blocks";
    category = Category.Code_generation;
    description =
      "one very large basic block whose first word is rewritten before \
       every execution; inputs come from volatile memory cells";
    default_iters = 500_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

(* ------------------------------------------------------------------ *)
(* Control flow                                                         *)
(* ------------------------------------------------------------------ *)

let control_flow ~name ~prefix ~own_pages ~indirect ~default_iters ~description =
  let body ~support:_ ~platform:_ =
    let functions, fn0, table = chain ~prefix ~own_pages ~indirect () in
    let kernel =
      if indirect then
        [ La (v0, table); Load (W32, v0, v0, 0); Li (v1, 0); Call_reg v0 ]
      else [ Li (v1, 0); Call fn0 ]
    in
    { Bench.empty_body with Bench.kernel; functions }
  in
  {
    Bench.name;
    category = Category.Control_flow;
    description;
    default_iters;
    ops_per_iter = chain_length;
    platform_specific = false;
    body;
  }

let inter_page_direct =
  control_flow ~name:"Inter-Page Direct" ~prefix:"ipd" ~own_pages:true
    ~indirect:false ~default_iters:100_000_000
    ~description:"short functions on separate pages, direct tail calls"

let inter_page_indirect =
  control_flow ~name:"Inter-Page Indirect" ~prefix:"ipi" ~own_pages:true
    ~indirect:true ~default_iters:250_000
    ~description:
      "short functions on separate pages, called through hard-to-predict \
       function pointers"

let intra_page_direct =
  control_flow ~name:"Intra-Page Direct" ~prefix:"apd" ~own_pages:false
    ~indirect:false ~default_iters:500_000_000
    ~description:"short functions within one page, direct tail calls"

let intra_page_indirect =
  control_flow ~name:"Intra-Page Indirect" ~prefix:"api" ~own_pages:false
    ~indirect:true ~default_iters:200_000
    ~description:"short functions within one page, indirect tail calls"

(* ------------------------------------------------------------------ *)
(* Exception handling                                                   *)
(* ------------------------------------------------------------------ *)

let skip_faulting_insn ~bytes =
  [
    Cop_read (v3, Sb_isa.Cregs.elr);
    add v3 v3 (I bytes);
    Cop_write (Sb_isa.Cregs.elr, v3);
    Eret;
  ]

let data_access_fault =
  let body ~support ~platform:(p : Platform.t) =
    let (module S : Support.SUPPORT) = support in
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.fault_va) ];
      kernel = [ Load (W32, v2, v1, 0) ];
      handlers =
        [ (Sb_sim.Exn.Data_abort, skip_faulting_insn ~bytes:S.load_skip_bytes) ];
    }
  in
  {
    Bench.name = "Data Access Fault";
    category = Category.Exception_handling;
    description =
      "read an unmapped address; the abort handler returns past the load";
    default_iters = 25_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let instruction_access_fault =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.fault_va) ];
      kernel = [ Call_reg v1 ];
      handlers =
        [
          (* "stack unwinding": resume at the call's return address *)
          (Sb_sim.Exn.Prefetch_abort, [ Cop_write_lr Sb_isa.Cregs.elr; Eret ]);
        ];
    }
  in
  {
    Bench.name = "Instruction Access Fault";
    category = Category.Exception_handling;
    description =
      "call into an unmapped page; the handler unwinds to the caller";
    default_iters = 25_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let undefined_instruction =
  let body ~support ~platform:_ =
    let (module S : Support.SUPPORT) = support in
    {
      Bench.empty_body with
      Bench.kernel = [ Undef ];
      handlers =
        [ (Sb_sim.Exn.Undefined, skip_faulting_insn ~bytes:S.undef_skip_bytes) ];
    }
  in
  {
    Bench.name = "Undefined Instruction";
    category = Category.Exception_handling;
    description = "execute the architecturally undefined instruction";
    default_iters = 50_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let system_call =
  let body ~support:_ ~platform:_ =
    {
      Bench.empty_body with
      Bench.kernel = [ Syscall ];
      handlers = [ (Sb_sim.Exn.Syscall, [ Eret ]) ];
    }
  in
  {
    Bench.name = "System Call";
    category = Category.Exception_handling;
    description = "execute a system-call instruction; the handler returns";
    default_iters = 50_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let external_software_interrupt =
  let body ~support:_ ~platform:(p : Platform.t) =
    let intc = p.Platform.intc_base in
    let mask = p.Platform.softint_mask in
    let flag = p.Platform.scratch_base + 64 in
    {
      Bench.empty_body with
      Bench.setup =
        [
          Li (v1, intc);
          Li (v0, mask);
          Store (W32, v0, v1, 0x4);  (* ENABLE the softint line *)
          Li (v2, flag);
        ];
      kernel =
        [
          Li (v0, mask);
          Store (W32, v0, v1, 0x8);  (* SOFTINT_SET: raise the line *)
          L "eswi_wait";
          Load (W32, v0, v2, 0);
          Cmp (v0, I 1);
          Br (Sb_isa.Uop.Ne, "eswi_wait");
          Li (v0, 0);
          Store (W32, v0, v2, 0);
        ];
      handlers =
        [
          ( Sb_sim.Exn.Irq,
            Rt.wrap_irq_handler
              [
                Li (v3, intc);
                Li (v0, mask);
                Store (W32, v0, v3, 0xC);  (* ACK *)
                Li (v3, flag);
                Li (v0, 1);
                Store (W32, v0, v3, 0);
              ] );
        ];
      needs_irqs = true;
    }
  in
  {
    Bench.name = "External Software Interrupt";
    category = Category.Exception_handling;
    description =
      "raise a software-generated interrupt at the interrupt controller and \
       wait for the IRQ handler";
    default_iters = 20_000_000;
    ops_per_iter = 1;
    platform_specific = true;
    body;
  }

(* ------------------------------------------------------------------ *)
(* I/O                                                                  *)
(* ------------------------------------------------------------------ *)

let memory_mapped_device =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.devid_base) ];
      kernel =
        [
          Load (W32, v0, v1, 0);
          Load (W32, v0, v1, 0);
          Load (W32, v0, v1, 0);
          Load (W32, v0, v1, 0);
        ];
    }
  in
  {
    Bench.name = "Memory Mapped Device";
    category = Category.Io;
    description =
      "repeatedly read the side-effect-free device identification register";
    default_iters = 400_000_000;
    ops_per_iter = 4;
    platform_specific = true;
    body;
  }

let coprocessor_access =
  let body ~support:_ ~platform:_ =
    {
      Bench.empty_body with
      Bench.kernel =
        [ Cop_safe_read v0; Cop_safe_read v0; Cop_safe_read v0; Cop_safe_read v0 ];
    }
  in
  {
    Bench.name = "Coprocessor Access";
    category = Category.Io;
    description =
      "repeatedly perform the architecture's safe coprocessor access";
    default_iters = 250_000_000;
    ops_per_iter = 4;
    platform_specific = false;
    body;
  }

(* ------------------------------------------------------------------ *)
(* Memory system                                                        *)
(* ------------------------------------------------------------------ *)

let cold_memory_access =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.cold_region_va) ];
      kernel =
        [
          Mov (v0, v1);
          Li (v2, p.Platform.cold_region_pages);
          L "cold_loop";
          Load (W32, v3, v0, 0);
          add v0 v0 (I 4096);
          sub v2 v2 (I 1);
          Cmp (v2, I 0);
          Br (Sb_isa.Uop.Ne, "cold_loop");
        ];
    }
  in
  {
    Bench.name = "Cold Memory Access";
    category = Category.Memory_system;
    description =
      "one read at the top of each page of a large region: every access \
       misses the TLB";
    default_iters = 24_414;  (* 50M accesses / 2048 pages per iteration *)
    ops_per_iter = Platform.sbp_ref.Platform.cold_region_pages;
    platform_specific = false;
    body;
  }

let hot_memory_access =
  let body ~support:_ ~platform:(p : Platform.t) =
    let pair = [ Load (W32, v0, v1, 0); Store (W32, v0, v1, 0) ] in
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.scratch_base) ];
      kernel = List.concat (List.init 16 (fun _ -> pair));
    }
  in
  {
    Bench.name = "Hot Memory Access";
    category = Category.Memory_system;
    description = "manually unrolled load/store pairs to one hot page";
    default_iters = 31_250_000;  (* 500M accesses at 16 pairs per iteration *)
    ops_per_iter = 32;
    platform_specific = false;
    body;
  }

let nonprivileged_access =
  let body ~support ~platform:(p : Platform.t) =
    let (module S : Support.SUPPORT) = support in
    let target = if S.nonpriv_supported then p.Platform.user_page_va else 0 in
    let pair = [ Load_user (v0, v1, 0); Store_user (v0, v1, 0) ] in
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, target) ];
      kernel = List.concat (List.init 8 (fun _ -> pair));
    }
  in
  {
    Bench.name = "Nonprivileged Access";
    category = Category.Memory_system;
    description =
      "hot accesses through the non-privileged load/store instructions (a \
       no-op on architectures without them)";
    default_iters = 37_500_000;  (* 300M accesses at 8 pairs per iteration *)
    ops_per_iter = 16;
    platform_specific = false;
    body;
  }

let tlb_eviction =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.cold_region_va) ];
      kernel = [ Load (W32, v0, v1, 0); Tlb_inv_page v1 ];
    }
  in
  {
    Bench.name = "TLB Eviction";
    category = Category.Memory_system;
    description = "access a page and evict its TLB entry every iteration";
    default_iters = 4_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let tlb_flush =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.cold_region_va) ];
      kernel = [ Load (W32, v0, v1, 0); Tlb_inv_all ];
    }
  in
  {
    Bench.name = "TLB Flush";
    category = Category.Memory_system;
    description = "access a page and flush the entire TLB every iteration";
    default_iters = 4_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let all =
  [
    small_blocks;
    large_blocks;
    inter_page_direct;
    inter_page_indirect;
    intra_page_direct;
    intra_page_indirect;
    data_access_fault;
    instruction_access_fault;
    undefined_instruction;
    system_call;
    external_software_interrupt;
    memory_mapped_device;
    coprocessor_access;
    cold_memory_access;
    hot_memory_access;
    nonprivileged_access;
    tlb_eviction;
    tlb_flush;
  ]

let find name =
  List.find_opt
    (fun b -> String.lowercase_ascii b.Bench.name = String.lowercase_ascii name)
    all

let by_category category = List.filter (fun b -> b.Bench.category = category) all
