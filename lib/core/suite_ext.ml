open Pasm

let add r a b = Alu (Sb_isa.Uop.Add, r, a, b)
let xor r a b = Alu (Sb_isa.Uop.Xor, r, a, b)

let nested_exception =
  let body ~support ~platform:(p : Platform.t) =
    let (module S : Support.SUPPORT) = support in
    let save = p.Platform.scratch_base + 0xE00 in
    {
      Bench.empty_body with
      Bench.kernel = [ Syscall ];
      handlers =
        [
          ( Sb_sim.Exn.Syscall,
            [
              (* bank the outer exception state: the inner abort will
                 overwrite ELR/SPSR/ESR *)
              Cop_read (v3, Sb_isa.Cregs.elr);
              Li (v0, save);
              Store (W32, v3, v0, 0);
              Cop_read (v3, Sb_isa.Cregs.spsr);
              Store (W32, v3, v0, 4);
              (* the nested fault *)
              Li (v3, p.Platform.fault_va);
              Load (W32, v3, v3, 0);
              (* restore and return *)
              Li (v0, save);
              Load (W32, v3, v0, 0);
              Cop_write (Sb_isa.Cregs.elr, v3);
              Load (W32, v3, v0, 4);
              Cop_write (Sb_isa.Cregs.spsr, v3);
              Eret;
            ] );
          ( Sb_sim.Exn.Data_abort,
            [
              Cop_read (v3, Sb_isa.Cregs.elr);
              add v3 v3 (I S.load_skip_bytes);
              Cop_write (Sb_isa.Cregs.elr, v3);
              Eret;
            ] );
        ];
    }
  in
  {
    Bench.name = "Nested Exception";
    category = Category.Exception_handling;
    description =
      "a system call whose handler takes and recovers from a data abort: \
       exercises nested exception entry/exit and state banking";
    default_iters = 10_000_000;
    ops_per_iter = 2;
    platform_specific = false;
    body;
  }

(* The user page has its own single-entry L2 table (see Rt); this benchmark
   rewrites that entry, alternating the page between two scratch frames. *)
let page_table_modification =
  let body ~support:_ ~platform:(p : Platform.t) =
    let l2_tables = (p.Platform.cold_region_pages + 1023) / 1024 in
    let user_l2 = p.Platform.l2_table_base + (l2_tables * 4096) in
    let slot = user_l2 + (Sb_mmu.Pte.l2_index p.Platform.user_page_va * 4) in
    let entry frame =
      Sb_mmu.Pte.encode_page
        ~pa_base:(p.Platform.scratch_base + (frame * 4096))
        ~ap:Sb_mmu.Access.Ap.user_full ~xn:true
    in
    let toggle = entry 0 lxor entry 1 in
    {
      Bench.empty_body with
      Bench.setup =
        [
          (* distinct markers in the two frames (physical, identity-mapped) *)
          Li (v0, p.Platform.scratch_base);
          Li (v3, 0xAAAA);
          Store (W32, v3, v0, 0);
          Li (v0, p.Platform.scratch_base + 4096);
          Li (v3, 0xBBBB);
          Store (W32, v3, v0, 0);
          Li (v1, slot);
          Li (v2, entry 1);  (* first iteration remaps to frame 1 *)
        ];
      kernel =
        [
          Store (W32, v2, v1, 0);  (* rewrite the PTE *)
          Li (v0, p.Platform.user_page_va);
          Tlb_inv_page v0;         (* shoot down the stale translation *)
          Load (W32, v3, v0, 0);   (* must observe the new frame *)
          (* publish the observed marker where the harness can check it
             (frame 2 of the scratch arena, untouched by the remapping) *)
          Li (v0, p.Platform.scratch_base + (2 * 4096));
          Store (W32, v3, v0, 0);
          xor v2 v2 (I toggle);
        ];
    }
  in
  {
    Bench.name = "Page Table Modification";
    category = Category.Memory_system;
    description =
      "rewrite a PTE, invalidate its TLB entry and touch the page: the \
       remap path behind copy-on-write and page migration";
    default_iters = 4_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let exception_return =
  let body ~support:_ ~platform:_ =
    let hop i = Printf.sprintf "ert_hop%d" i in
    let trampolines =
      List.concat
        (List.init 4 (fun i ->
             [ La (v3, hop i); Cop_write (Sb_isa.Cregs.elr, v3); Eret; L (hop i) ]))
    in
    {
      Bench.empty_body with
      Bench.kernel = [ Syscall ];
      handlers =
        [
          ( Sb_sim.Exn.Syscall,
            [ Cop_read (v0, Sb_isa.Cregs.elr) ]
            @ trampolines
            @ [ Cop_write (Sb_isa.Cregs.elr, v0); Eret ] );
        ];
    }
  in
  {
    Bench.name = "Exception Return";
    category = Category.Exception_handling;
    description =
      "chains of ERET trampolines inside one handler: isolates the \
       exception-return path from exception entry";
    default_iters = 50_000_000;
    ops_per_iter = 5;
    platform_specific = false;
    body;
  }

(* Alternate between two address-space identifiers and touch a small page
   set under each.  On ASID-tagged implementations both spaces stay cached;
   untagged implementations flush on every switch and walk every access. *)
let context_switch =
  let body ~support:_ ~platform:(p : Platform.t) =
    {
      Bench.empty_body with
      Bench.setup = [ Li (v1, p.Platform.cold_region_va); Li (v2, 1) ];
      kernel =
        [
          xor v2 v2 (I 3);  (* toggle between ASID 1 and ASID 2 *)
          Cop_write (Sb_isa.Cregs.asid, v2);
          Mov (v0, v1);
          (* lr carries the loop count (no calls in this kernel); v3 is the
             load destination so no value is live in the handler-scratch
             register across the faulting load *)
          Li (lr, 8);
          L "cs_touch";
          Load (W32, v3, v0, 0);
          add v0 v0 (I 4096);
          Alu (Sb_isa.Uop.Sub, lr, lr, I 1);
          Cmp (lr, I 0);
          Br (Sb_isa.Uop.Ne, "cs_touch");
        ];
      cleanup =
        [ Li (v3, 0); Cop_write (Sb_isa.Cregs.asid, v3) ];
    }
  in
  {
    Bench.name = "Context Switch";
    category = Category.Memory_system;
    description =
      "alternate address-space identifiers while touching a working set:        ASID-tagged TLBs keep both spaces warm, untagged ones flush per        switch (the ASID/PCID support the paper defers to future work)";
    default_iters = 4_000_000;
    ops_per_iter = 1;
    platform_specific = false;
    body;
  }

let all =
  [ nested_exception; page_table_modification; exception_return; context_switch ]
