open Pasm

let page_size = 4096
let section_size = 1 lsl Sb_mmu.Pte.section_shift

(* Bench-device register offsets. *)
let phase_off = 0x0
let exit_off = 0x4
let iters_off = 0xC

(* Store a constant to a device register; clobbers v0 and v3. *)
let dev_store ~base ~off value =
  [ Li (v0, base); Li (v3, value); Store (W32, v3, v0, off) ]

(* Write one host-computed page-table word; clobbers v0 and v3. *)
let poke ~addr value = [ Li (v0, addr); Li (v3, value); Store (W32, v3, v0, 0) ]

(* The L2 entry of the cold region's first page; entry i maps scratch page
   (i mod scratch_pages), that is this value plus (i mod scratch_pages)
   pages. *)
let first_cold_entry (p : Platform.t) =
  Sb_mmu.Pte.encode_page ~pa_base:p.Platform.scratch_base
    ~ap:Sb_mmu.Access.Ap.kernel_only ~xn:true

(* The boot stub, entered at reset as [_start]: it writes the cold region's
   L2 entries and jumps to [rt_main], the inline boot.  The region holds
   scratch_pages distinct entries, each in every scratch_pages-th slot, so
   one pass per value does one store per slot holding it, at offsets
   k * scratch_pages * 4 from its first slot, and five instructions to
   move to the next value: about one instruction per slot, where a loop
   over the slots takes nine.  The stub sits on a page of its own after
   the vectors.  Kernel counters depend on code addresses, so new boot
   work goes here and the inline boot keeps its bytes; and a page the stub
   shared with code a kernel rewrites would be marked as code during
   setup, costing that kernel an extra SMC invalidation.  Offsets stay
   within SBA's signed 14-bit field (VLX's has 16 bits): on a platform
   whose stride would pass it, each further group of slots is stored
   through v3, set past v0 by the group's span. *)
let boot_stub (p : Platform.t) =
  let values = p.Platform.scratch_pages in
  let pages = p.Platform.cold_region_pages in
  if pages mod values <> 0 then
    invalid_arg "Rt: cold_region_pages is not a multiple of scratch_pages";
  let stride = values * 4 in
  let group = (8191 / stride) + 1 in
  let store k =
    let g = k / group and offset = k mod group * stride in
    if g = 0 then [ Store (W32, v1, v0, offset) ]
    else
      (if offset = 0 then [ Alu (Sb_isa.Uop.Add, v3, v0, I (g * group * stride)) ]
       else [])
      @ [ Store (W32, v1, v3, offset) ]
  in
  [
    Align page_size;
    L "_start";
    Li (v0, p.Platform.l2_table_base);
    Li (v1, first_cold_entry p);
    Li (v2, values);
    L "rt_stub_fill";
  ]
  @ List.concat (List.init (pages / values) store)
  @ [
      Alu (Sb_isa.Uop.Add, v0, v0, I 4);
      Alu (Sb_isa.Uop.Add, v1, v1, I page_size);
      Alu (Sb_isa.Uop.Sub, v2, v2, I 1);
      Cmp (v2, I 0);
      Br (Sb_isa.Uop.Ne, "rt_stub_fill");
      Jmp "rt_main";
    ]

let build_page_tables (p : Platform.t) =
  let l1 = p.Platform.page_table_base in
  let l1_slot va = l1 + (Sb_mmu.Pte.l1_index va * 4) in
  (* identity sections covering RAM, kernel-only, executable *)
  let ram_sections = (p.Platform.ram_size + section_size - 1) / section_size in
  let ram_entries =
    List.concat
      (List.init ram_sections (fun i ->
           let pa = i * section_size in
           poke ~addr:(l1_slot pa)
             (Sb_mmu.Pte.encode_section ~pa_base:pa ~ap:Sb_mmu.Access.Ap.kernel_only
                ~xn:false)))
  in
  (* one section mapping the device windows, kernel-only, never executable *)
  let device_entry =
    poke
      ~addr:(l1_slot p.Platform.device_section_va)
      (Sb_mmu.Pte.encode_section ~pa_base:p.Platform.device_section_va
         ~ap:Sb_mmu.Access.Ap.kernel_only ~xn:true)
  in
  (* the cold region: page-mapped VA span aliasing the scratch pages; the
     boot stub has already written its L2 entries *)
  let l2 = p.Platform.l2_table_base in
  let pages = p.Platform.cold_region_pages in
  let l2_tables = (pages + 1023) / 1024 in
  let l1_entries_for_cold =
    List.concat
      (List.init l2_tables (fun i ->
           poke
             ~addr:(l1_slot (p.Platform.cold_region_va + (i * section_size)))
             (Sb_mmu.Pte.encode_table ~l2_base:(l2 + (i * page_size)))))
  in
  let wrap = p.Platform.scratch_pages in
  let cold_fill =
    (* v0 slot pointer, v1 entry value, v2 remaining, v3 wrap counter.
       The boot stub has written every slot, so one pass rewrites slot 0
       with the value already there.  The loop stays, byte for byte, so
       that everything after it keeps its address. *)
    [
      Li (v0, l2);
      Li (v1, first_cold_entry p);
      Li (v2, 1);
      Li (v3, wrap);
      L "rt_cold_fill";
      Store (W32, v1, v0, 0);
      Alu (Sb_isa.Uop.Add, v0, v0, I 4);
      Alu (Sb_isa.Uop.Add, v1, v1, I page_size);
      Alu (Sb_isa.Uop.Sub, v3, v3, I 1);
      Cmp (v3, I 0);
      Br (Sb_isa.Uop.Ne, "rt_cold_no_wrap");
      Alu (Sb_isa.Uop.Sub, v1, v1, I (wrap * page_size));
      Li (v3, wrap);
      L "rt_cold_no_wrap";
      Alu (Sb_isa.Uop.Sub, v2, v2, I 1);
      Cmp (v2, I 0);
      Br (Sb_isa.Uop.Ne, "rt_cold_fill");
    ]
  in
  (* the user page: its own L2 table, one user-RW entry *)
  let user_l2 = l2 + (l2_tables * page_size) in
  let user_entries =
    poke
      ~addr:(l1_slot p.Platform.user_page_va)
      (Sb_mmu.Pte.encode_table ~l2_base:user_l2)
    @ poke
        ~addr:(user_l2 + (Sb_mmu.Pte.l2_index p.Platform.user_page_va * 4))
        (Sb_mmu.Pte.encode_page ~pa_base:p.Platform.scratch_base
           ~ap:Sb_mmu.Access.Ap.user_full ~xn:true)
  in
  ram_entries @ device_entry @ l1_entries_for_cold @ cold_fill @ user_entries

let enable_irqs =
  [
    Li (v3, 3);
    (* kernel mode, IRQs enabled *)
    Cop_write (Sb_isa.Cregs.spsr, v3);
    La (v3, "rt_irqs_on");
    Cop_write (Sb_isa.Cregs.elr, v3);
    Eret;
    L "rt_irqs_on";
  ]

let wrap_irq_handler body =
  [
    Cop_write (Sb_isa.Cregs.tpidr0, v0);
    Cop_write (Sb_isa.Cregs.tpidr1, v3);
  ]
  @ body
  @ [
      Cop_read (v0, Sb_isa.Cregs.tpidr0);
      Cop_read (v3, Sb_isa.Cregs.tpidr1);
      Eret;
    ]

let vector_order =
  [
    Sb_sim.Exn.Reset;
    Sb_sim.Exn.Undefined;
    Sb_sim.Exn.Syscall;
    Sb_sim.Exn.Prefetch_abort;
    Sb_sim.Exn.Data_abort;
    Sb_sim.Exn.Irq;
  ]

let handler_label vector = "rt_h_" ^ Sb_sim.Exn.vector_name vector

(* Each vector slot carries its own label: slots past the first are entered
   by hardware vectoring (VBAR + offset), not by any static branch, so the
   labels give static analyses a root for every slot. *)
let vector_slot_label vector = "rt_vec_" ^ Sb_sim.Exn.vector_name vector
let vector_slot_labels = List.map vector_slot_label vector_order

let ops ~support ~platform ~bench =
  let p = platform in
  let body = bench.Bench.body ~support ~platform in
  let bench_base = p.Platform.bench_base in
  let handlers =
    List.concat_map
      (fun vector ->
        let code =
          match List.assoc_opt vector body.Bench.handlers with
          | Some code -> code
          | None -> (
            match vector with
            | Sb_sim.Exn.Reset -> [ Jmp "_start" ]
            | _ -> [ Jmp "rt_fail" ])
        in
        (L (handler_label vector) :: code))
      vector_order
  in
  let vectors =
    [ Align 8; L "rt_vectors" ]
    @ List.concat_map
        (fun vector ->
          [ L (vector_slot_label vector); Jmp (handler_label vector); Align 8 ])
        vector_order
  in
  [ L "rt_main" ]
    (* vectors first so that faults during setup already report cleanly *)
    @ [ La (v0, "rt_vectors"); Cop_write (Sb_isa.Cregs.vbar, v0) ]
    @ [ Li (sp, p.Platform.stack_top) ]
    @ build_page_tables p
    @ [ Li (v0, p.Platform.page_table_base); Cop_write (Sb_isa.Cregs.ttbr, v0) ]
    @ [ Li (v0, 1); Cop_write (Sb_isa.Cregs.sctlr, v0) ]
    @ body.Bench.setup
    @ (if body.Bench.needs_irqs then enable_irqs else [])
    (* fetch the harness-provided iteration count into v4 *)
    @ [ Li (v0, bench_base); Load (W32, v4, v0, iters_off) ]
    @ dev_store ~base:bench_base ~off:phase_off 1
    @ [ L "rt_kloop" ]
    @ body.Bench.kernel
    @ [
        Alu (Sb_isa.Uop.Sub, v4, v4, I 1);
        Cmp (v4, I 0);
        Br (Sb_isa.Uop.Ne, "rt_kloop");
      ]
    @ dev_store ~base:bench_base ~off:phase_off 2
    @ body.Bench.cleanup
    @ dev_store ~base:bench_base ~off:exit_off 0
    @ [ Halt ]
    @ [ L "rt_fail" ]
    @ dev_store ~base:bench_base ~off:exit_off 0xDEAD
    @ [ Halt ]
  @ body.Bench.functions
  @ handlers
  @ vectors
  @ boot_stub p

let program ~support ~platform ~bench =
  let (module S : Support.SUPPORT) = support in
  S.assemble ~base:platform.Platform.code_base ~entry:"_start"
    (ops ~support ~platform ~bench)
