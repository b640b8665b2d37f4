open Sb_isa
open Sb_sim

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

(* Flat "hardware" translation cache: one packed slot per virtual page of the
   whole 32-bit space.  Layout:
   [gen | asid:8 | ppn:20 | ap:2 | xn:1 | valid:1] — a tagged hardware TLB,
   so address-space switches need no flush. *)
let vpn_space = 1 lsl 20

(* the largest generation whose tag survives [lsl 32] in a positive int *)
let max_tlb_gen = max_int lsr 32

module Config = struct
  type t = { vm_exit_rounds : int; name_suffix : string }

  let virt = { vm_exit_rounds = 96; name_suffix = "virt" }
  let native = { vm_exit_rounds = 0; name_suffix = "native" }
end

module Make_configured
    (A : Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
struct
  let cfg = C.config
  let is_native = cfg.Config.vm_exit_rounds = 0

  let name = Printf.sprintf "%s-%s" cfg.Config.name_suffix A.name

  let features =
    if is_native then
      [
        ("Execution Model", "Direct");
        ("Memory Access", "Direct");
        ("Code Generation", "None");
        ("Control Flow", "Direct");
        ("Interrupts", "Direct");
        ("Synchronous Exceptions", "Direct");
        ("Undefined Instruction", "Direct");
      ]
    else
      [
        ("Execution Model", "Direct");
        ("Memory Access", "Direct (HW TLB)");
        ("Code Generation", "None");
        ("Control Flow", "Direct");
        ("Interrupts", "Via Emulation Layer");
        ("Synchronous Exceptions", "Direct");
        ("Undefined Instruction", "Hypercall");
      ]

  exception Guest_fault of {
    vector : Exn.vector;
    cause : int;
    far : int option;
    return_addr : int;
  }

  exception Stop of Run_result.stop_reason

  type ctx = {
    machine : Machine.t;
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    host_tlb : int array;
    mutable tlb_gen : int;
    decode_cache : (int, Uop.decoded option array) Hashtbl.t;
    code_pages : Bytes.t;
    (* current-page fetch shortcut: hardware streams fetches within a page *)
    mutable cur_fetch_page : int;
    mutable cur_fetch_arr : Uop.decoded option array;
    shadow_regs : int array;
    shadow_cop : int array;
    mutable exit_token : int;
    mutable timer_backlog : int;
  }

  let empty_arr : Uop.decoded option array = [||]

  (* Advance the host TLB to a fresh generation, which invalidates every
     slot at once.  Only a tag that would overflow costs a pass over the
     table. *)
  let next_gen host_tlb gen =
    if gen < max_tlb_gen then gen + 1
    else begin
      Array.fill host_tlb 0 vpn_space 0;
      1
    end

  (* Predecode page arrays of replaced contexts and of pages dropped by
     SMC invalidation, for [fetch_decode] to refill instead of allocating.
     A fresh 32 KiB array would land on heap pages the OS has just taken
     back, and fault on first use.  An array is a spare only once nothing
     else refers to it. *)
  let spare_pages : Uop.decoded option array Stack.t = Stack.create ()

  let page_array () =
    match Stack.pop_opt spare_pages with
    | Some arr ->
      Array.fill arr 0 page_size None;
      arr
    | None -> Array.make page_size None

  (* [prev] is the context this one replaces, which nothing can reach any
     more: its host TLB is taken over at the next generation, and its
     predecode arrays become spares. *)
  let make_ctx ?prev machine perf =
    let ram_pages = (Sb_mem.Bus.ram_size machine.Machine.bus + page_mask) / page_size in
    let cpu = machine.Machine.cpu in
    (* the world switch copies these with unchecked loops *)
    if Array.length cpu.Cpu.regs <> 16 || Array.length cpu.Cpu.cop <> Cregs.count
    then invalid_arg "Virt: CPU register file is not 16 + Cregs.count words";
    let host_tlb, tlb_gen =
      match prev with
      | Some prev ->
        Hashtbl.iter (fun _ arr -> Stack.push arr spare_pages) prev.decode_cache;
        (prev.host_tlb, next_gen prev.host_tlb prev.tlb_gen)
      | None -> (Array.make vpn_space 0, 1)
    in
    {
      machine;
      cpu;
      bus = machine.Machine.bus;
      perf;
      host_tlb;
      tlb_gen;
      decode_cache = Hashtbl.create 64;
      code_pages = Bytes.make ((ram_pages + 7) / 8) '\000';
      cur_fetch_page = -1;
      cur_fetch_arr = empty_arr;
      shadow_regs = Array.make 16 0;
      shadow_cop = Array.make Cregs.count 0;
      exit_token = 0;
      timer_backlog = 0;
    }

  (* ------------- vm exits ---------------------------------------------- *)

  (* The world switch copies with typed [int array] loops, not
     [Array.blit]: [caml_array_blit] uses memmove only for a young
     destination and calls [caml_modify] per element once a minor GC has
     promoted the arrays, so the modelled exit cost would change several
     times over with GC phase.  Typed stores cost the same in any GC
     state.  The loop must stay unchecked (bounds checks at least double
     its cost) and is unrolled four ways, since a branch and a safepoint
     poll per word would cost more than the young memmove did.
     [make_ctx] checks the lengths it relies on. *)
  let copy_words (src : int array) (dst : int array) n =
    let i = ref 0 in
    while !i + 4 <= n do
      let j = !i in
      Array.unsafe_set dst j (Array.unsafe_get src j);
      Array.unsafe_set dst (j + 1) (Array.unsafe_get src (j + 1));
      Array.unsafe_set dst (j + 2) (Array.unsafe_get src (j + 2));
      Array.unsafe_set dst (j + 3) (Array.unsafe_get src (j + 3));
      i := j + 4
    done;
    for j = !i to n - 1 do
      Array.unsafe_set dst j (Array.unsafe_get src j)
    done

  let vm_exit ctx reason =
    if not is_native then begin
      Perf.incr ctx.perf Perf.Vm_exits;
      let cpu = ctx.cpu in
      for round = 1 to cfg.Config.vm_exit_rounds do
        (* world switch out: save vCPU state *)
        copy_words cpu.Cpu.regs ctx.shadow_regs 16;
        copy_words cpu.Cpu.cop ctx.shadow_cop Cregs.count;
        (* emulation-layer dispatch *)
        ctx.exit_token <-
          (ctx.exit_token + ctx.shadow_regs.((reason + round) land 15)
          + ctx.shadow_cop.((reason + round) mod Cregs.count))
          land max_int;
        (* world switch in: restore *)
        copy_words ctx.shadow_regs cpu.Cpu.regs 16;
        copy_words ctx.shadow_cop cpu.Cpu.cop Cregs.count
      done
    end

  (* ------------- faults ------------------------------------------------ *)

  let data_fault ~iaddr ~kind ~va fault =
    let cause = Exn.Cause.of_fault ~kind fault in
    match kind with
    | Sb_mmu.Access.Execute ->
      raise
        (Guest_fault
           { vector = Exn.Prefetch_abort; cause; far = Some va; return_addr = iaddr })
    | Sb_mmu.Access.Read | Sb_mmu.Access.Write ->
      raise
        (Guest_fault
           { vector = Exn.Data_abort; cause; far = Some va; return_addr = iaddr })

  let bus_fault ~iaddr ~kind ~va =
    let vector =
      match kind with
      | Sb_mmu.Access.Execute -> Exn.Prefetch_abort
      | Sb_mmu.Access.Read | Sb_mmu.Access.Write -> Exn.Data_abort
    in
    raise
      (Guest_fault
         { vector; cause = Exn.Cause.bus_error; far = Some va; return_addr = iaddr })

  let walker_read32 ctx pa =
    try Sb_mem.Bus.read32 ctx.bus pa with Sb_mem.Bus.Fault _ -> 0

  (* ------------- hardware translation cache ----------------------------- *)

  let pack ctx ~ppn ~ap ~xn ~asid =
    (ctx.tlb_gen lsl 32)
    lor ((asid land 0xFF) lsl 24)
    lor (ppn lsl 4)
    lor (ap lsl 2)
    lor (Bool.to_int xn lsl 1)
    lor 1

  (* index mixes the ASID; for a fixed ASID the mapping is injective in the
     vpn, so matching the stored ASID tag is sufficient to validate a hit *)
  let slot_index ~vpn ~asid = (vpn lxor ((asid land 0xFF) * 0x9E37)) land (vpn_space - 1)

  let translate ctx ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else begin
      let vpn = va lsr page_shift in
      let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
      let slot = ctx.host_tlb.(slot_index ~vpn ~asid) in
      if
        slot land 1 = 1
        && slot lsr 32 = ctx.tlb_gen
        && (slot lsr 24) land 0xFF = asid land 0xFF
      then begin
        let ap = (slot lsr 2) land 3 in
        let xn = slot land 2 <> 0 in
        if Sb_mmu.Access.Ap.permits ~ap ~xn kind priv then
          (((slot lsr 4) land 0xFFFFF) lsl page_shift) lor (va land page_mask)
        else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      end
      else begin
        (* hardware walk: free of simulator bookkeeping beyond the loads *)
        Perf.incr ctx.perf Perf.Mmu_walks;
        let ttbr = ctx.cpu.Cpu.cop.(Cregs.ttbr) in
        match Sb_mmu.Walker.walk ~read32:(walker_read32 ctx) ~ttbr ~va with
        | Error fault -> data_fault ~iaddr ~kind ~va fault
        | Ok m ->
          Perf.add ctx.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
          let ppn = m.Sb_mmu.Walker.pa_page lsr page_shift in
          ctx.host_tlb.(slot_index ~vpn ~asid) <-
            pack ctx ~ppn ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn ~asid;
          if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
               kind priv
          then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
          else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      end
    end

  let flush_translation ctx =
    ctx.tlb_gen <- next_gen ctx.host_tlb ctx.tlb_gen;
    ctx.cur_fetch_page <- -1

  (* ------------- memory ------------------------------------------------- *)

  let read_phys ctx ~iaddr ~va width pa =
    if Sb_mem.Bus.is_ram ctx.bus pa then
      let ram = Sb_mem.Bus.ram ctx.bus in
      match width with
      | Uop.W8 -> Sb_mem.Phys_mem.read8 ram pa
      | Uop.W16 -> Sb_mem.Phys_mem.read16 ram pa
      | Uop.W32 -> Sb_mem.Phys_mem.read32 ram pa
    else begin
      (* device access: trapped and emulated under virtualization *)
      vm_exit ctx 1;
      Perf.incr ctx.perf Perf.Io_reads;
      try
        match width with
        | Uop.W8 -> Sb_mem.Bus.read8 ctx.bus pa
        | Uop.W16 -> Sb_mem.Bus.read16 ctx.bus pa
        | Uop.W32 -> Sb_mem.Bus.read32 ctx.bus pa
      with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~kind:Sb_mmu.Access.Read ~va
    end

  let code_bit_get ctx ppage =
    Char.code (Bytes.get ctx.code_pages (ppage lsr 3)) land (1 lsl (ppage land 7)) <> 0

  let code_bit_set ctx ppage =
    let i = ppage lsr 3 in
    Bytes.set ctx.code_pages i
      (Char.chr (Char.code (Bytes.get ctx.code_pages i) lor (1 lsl (ppage land 7))))

  let code_bit_clear ctx ppage =
    let i = ppage lsr 3 in
    Bytes.set ctx.code_pages i
      (Char.chr (Char.code (Bytes.get ctx.code_pages i) land lnot (1 lsl (ppage land 7))))

  let smc_check ctx pa =
    let ppage = pa lsr page_shift in
    if code_bit_get ctx ppage then begin
      (* the dropped array becomes a spare: rewriting code in a loop would
         otherwise allocate a fresh 32 KiB array per invalidation *)
      Option.iter
        (fun arr -> Stack.push arr spare_pages)
        (Hashtbl.find_opt ctx.decode_cache ppage);
      Hashtbl.remove ctx.decode_cache ppage;
      code_bit_clear ctx ppage;
      if ctx.cur_fetch_page = ppage then begin
        ctx.cur_fetch_page <- -1;
        ctx.cur_fetch_arr <- empty_arr
      end;
      Perf.incr ctx.perf Perf.Smc_invalidations
    end

  let write_phys ctx ~iaddr ~va width pa v =
    if Sb_mem.Bus.is_ram ctx.bus pa then begin
      let ram = Sb_mem.Bus.ram ctx.bus in
      (match width with
      | Uop.W8 -> Sb_mem.Phys_mem.write8 ram pa v
      | Uop.W16 -> Sb_mem.Phys_mem.write16 ram pa v
      | Uop.W32 -> Sb_mem.Phys_mem.write32 ram pa v);
      smc_check ctx pa
    end
    else begin
      vm_exit ctx 2;
      Perf.incr ctx.perf Perf.Io_writes;
      try
        match width with
        | Uop.W8 -> Sb_mem.Bus.write8 ctx.bus pa v
        | Uop.W16 -> Sb_mem.Bus.write16 ctx.bus pa v
        | Uop.W32 -> Sb_mem.Bus.write32 ctx.bus pa v
      with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~kind:Sb_mmu.Access.Write ~va
    end

  (* ------------- fetch --------------------------------------------------- *)

  let fetch_byte ctx ~iaddr a =
    let pa = translate ctx ~va:a ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr in
    if Sb_mem.Bus.is_ram ctx.bus pa then
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa
    else bus_fault ~iaddr ~kind:Sb_mmu.Access.Execute ~va:a

  let decode_at ctx va =
    Perf.incr ctx.perf Perf.Decodes;
    A.decode ~fetch8:(fetch_byte ctx ~iaddr:va) ~addr:va

  let fetch_decode ctx va =
    let pa = translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va in
    if not (Sb_mem.Bus.is_ram ctx.bus pa) then
      bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va;
    let ppage = pa lsr page_shift in
    let arr =
      if ctx.cur_fetch_page = ppage then ctx.cur_fetch_arr
      else begin
        (* [find] rather than [find_opt]: a loop that spans two code
           pages switches pages every iteration, and a hit must not
           allocate *)
        let arr =
          match Hashtbl.find ctx.decode_cache ppage with
          | arr -> arr
          | exception Not_found ->
            let arr = page_array () in
            Hashtbl.add ctx.decode_cache ppage arr;
            code_bit_set ctx ppage;
            arr
        in
        ctx.cur_fetch_page <- ppage;
        ctx.cur_fetch_arr <- arr;
        arr
      end
    in
    match Array.unsafe_get arr (pa land page_mask) with
    | Some d when d.Uop.addr = va -> d
    | _ ->
      let d = decode_at ctx va in
      (* never cache an instruction that straddles a page: its tail bytes
         live on a page whose invalidation would not reach this entry *)
      if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
      else begin
        arr.(pa land page_mask) <- Some d;
        code_bit_set ctx ppage;
        d
      end

  (* ------------- execution ---------------------------------------------- *)

  let operand ctx = function
    | Uop.Reg r -> ctx.cpu.Cpu.regs.(r)
    | Uop.Imm v -> v land 0xFFFF_FFFF

  let undef ~iaddr =
    raise
      (Guest_fault
         { vector = Exn.Undefined; cause = Exn.Cause.undefined; far = None; return_addr = iaddr })

  let exec_uop ctx (d : Uop.decoded) uop =
    let cpu = ctx.cpu in
    match uop with
    | Uop.Nop -> ()
    | Uop.Alu { op; rd; rn; rm; set_flags } ->
      let a = operand ctx rn in
      let b = operand ctx rm in
      if set_flags then begin
        let result = Alu_eval.eval_set_flags cpu op a b in
        match rd with Some rd -> cpu.Cpu.regs.(rd) <- result | None -> ()
      end
      else begin
        match rd with
        | Some rd -> cpu.Cpu.regs.(rd) <- Alu_eval.eval op a b
        | None -> ignore (Alu_eval.eval op a b)
      end
    | Uop.Load { width; rd; base; offset; user } ->
      Perf.incr ctx.perf Perf.Loads;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let pa = translate ctx ~va ~kind:Sb_mmu.Access.Read ~priv ~iaddr:d.Uop.addr in
      cpu.Cpu.regs.(rd) <- read_phys ctx ~iaddr:d.Uop.addr ~va width pa
    | Uop.Store { width; rs; base; offset; user } ->
      Perf.incr ctx.perf Perf.Stores;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let pa = translate ctx ~va ~kind:Sb_mmu.Access.Write ~priv ~iaddr:d.Uop.addr in
      write_phys ctx ~iaddr:d.Uop.addr ~va width pa cpu.Cpu.regs.(rs)
    | Uop.Branch { cond; target; link } ->
      (match target with
      | Uop.Direct _ -> Perf.incr ctx.perf Perf.Branch_direct
      | Uop.Indirect _ -> Perf.incr ctx.perf Perf.Branch_indirect);
      let taken =
        Uop.eval_cond cond ~n:cpu.Cpu.flag_n ~z:cpu.Cpu.flag_z ~c:cpu.Cpu.flag_c
          ~v:cpu.Cpu.flag_v
      in
      if taken then begin
        Perf.incr ctx.perf Perf.Branch_taken;
        let return_addr = d.Uop.addr + d.Uop.length in
        (match link with
        | Some l -> cpu.Cpu.regs.(l) <- return_addr land 0xFFFF_FFFF
        | None -> ());
        match target with
        | Uop.Direct t -> cpu.Cpu.pc <- t
        | Uop.Indirect r -> cpu.Cpu.pc <- cpu.Cpu.regs.(r)
      end
    | Uop.Svc _ ->
      raise
        (Guest_fault
           {
             vector = Exn.Syscall;
             cause = Exn.Cause.syscall;
             far = None;
             return_addr = d.Uop.addr + d.Uop.length;
           })
    | Uop.Undef ->
      (* undefined instructions trap to the hypervisor before being
         reflected back into the guest *)
      vm_exit ctx 3;
      undef ~iaddr:d.Uop.addr
    | Uop.Eret -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } -> (
      match Cop.read cpu ~creg with
      | Ok v ->
        Perf.incr ctx.perf Perf.Cop_reads;
        cpu.Cpu.regs.(rd) <- v
      | Error `Undefined ->
        vm_exit ctx 3;
        undef ~iaddr:d.Uop.addr)
    | Uop.Cop_write { creg; src } -> (
      match Cop.write cpu ~creg ~value:(operand ctx src) with
      | Ok Cop.No_effect -> Perf.incr ctx.perf Perf.Cop_writes
      | Ok Cop.Translation_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        flush_translation ctx
      | Ok Cop.Asid_changed ->
        (* tagged hardware TLB: no flush on address-space switch *)
        Perf.incr ctx.perf Perf.Cop_writes
      | Error `Undefined ->
        vm_exit ctx 3;
        undef ~iaddr:d.Uop.addr)
    | Uop.Tlb_inv_page r ->
      Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
      let vpn = cpu.Cpu.regs.(r) lsr page_shift in
      ctx.host_tlb.(slot_index ~vpn ~asid:cpu.Cpu.cop.(Cregs.asid)) <- 0
    | Uop.Tlb_inv_all ->
      Perf.incr ctx.perf Perf.Tlb_flush_ops;
      flush_translation ctx
    | Uop.Wfi -> (
      vm_exit ctx 4;
      match Runner.wait_for_interrupt ctx.machine ~perf:ctx.perf with
      | `Wake -> ()
      | `Deadlock -> raise (Stop Run_result.Wfi_deadlock))
    | Uop.Halt -> raise (Stop Run_result.Halted)

  (* a loop rather than [List.iter (exec_uop ctx d)], whose partial
     application allocates a closure per instruction *)
  let rec exec_uops ctx d = function
    | [] -> ()
    | uop :: rest ->
      exec_uop ctx d uop;
      exec_uops ctx d rest

  let exec_insn ctx (d : Uop.decoded) =
    ctx.cpu.Cpu.pc <- (d.Uop.addr + d.Uop.length) land 0xFFFF_FFFF;
    exec_uops ctx d d.Uop.uops;
    Perf.incr ctx.perf Perf.Insns;
    Perf.add ctx.perf Perf.Uops (List.length d.Uop.uops)

  let deliver ctx (vector, cause, far, return_addr) =
    Perf.incr ctx.perf Perf.Exceptions_total;
    (match vector with
    | Exn.Data_abort -> Perf.incr ctx.perf Perf.Data_abort
    | Exn.Prefetch_abort -> Perf.incr ctx.perf Perf.Prefetch_abort
    | Exn.Undefined -> Perf.incr ctx.perf Perf.Undef_insn
    | Exn.Syscall -> Perf.incr ctx.perf Perf.Svc_taken
    | Exn.Irq -> Perf.incr ctx.perf Perf.Irq_taken
    | Exn.Reset -> ());
    Exn.enter ctx.cpu vector ~return_addr ?far ~cause ()

  let flush_timer ctx =
    if ctx.timer_backlog > 0 then begin
      Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
      ctx.timer_backlog <- 0
    end

  (* Leaving at a switch point: flush batched timer ticks so the snapshot
     sees the timer state a cold run would at this instruction. *)
  let switch_stop ctx =
    flush_timer ctx;
    raise (Stop Run_result.Switch_point)

  (* Phase boundary: flush batched device time so timer state is a pure
     function of retired instructions at every phase edge (see interp). *)
  let phase_sync ctx benchdev =
    flush_timer ctx;
    Sb_mem.Benchdev.clear_sync benchdev;
    if Sb_mem.Benchdev.stop_pending benchdev then switch_stop ctx

  let execute ctx ~max_insns =
    let steps = ref 0 in
    let benchdev = ctx.machine.Machine.benchdev in
    try
      while !steps < max_insns do
        if Sb_mem.Benchdev.sync_pending benchdev then phase_sync ctx benchdev;
        if Machine.irq_pending ctx.machine then begin
          (* interrupt injection goes through the virtualization layer *)
          vm_exit ctx 5;
          deliver ctx (Exn.Irq, Exn.Cause.irq, None, ctx.cpu.Cpu.pc)
        end
        else begin
          (try exec_insn ctx (fetch_decode ctx ctx.cpu.Cpu.pc)
           with Guest_fault { vector; cause; far; return_addr } ->
             deliver ctx (vector, cause, far, return_addr));
          incr steps;
          ctx.timer_backlog <- ctx.timer_backlog + 1;
          if ctx.timer_backlog >= 64 then begin
            Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
            ctx.timer_backlog <- 0
          end
        end
      done;
      Run_result.Insn_limit
    with Stop reason -> reason

  (* Any run exit flushes the batched ticks, so snapshots taken between
     runs carry complete device time (see interp). *)
  let execute ctx ~max_insns =
    let stop = execute ctx ~max_insns in
    flush_timer ctx;
    stop

  (* Keep the last run's host TLB and decode cache when the machine is
     unchanged ([(machine, state_gen)] match): stepping under a debugger
     stays warm, while external state changes force a rebuild.  A rebuild
     recycles the replaced context's tables (see [make_ctx]): the session
     holds the only reference to it, and engines are not re-entrant. *)
  let session : (Machine.t * int * ctx) option ref = ref None

  let ctx_for machine =
    match !session with
    | Some (m, gen, ctx)
      when m == machine && gen = machine.Machine.state_gen ->
      (* the ctx owns its counter array; a new run starts it from zero *)
      Perf.reset ctx.perf;
      ctx
    | prev ->
      let prev = Option.map (fun (_, _, ctx) -> ctx) prev in
      let ctx = make_ctx ?prev machine (Perf.create ()) in
      session := Some (machine, machine.Machine.state_gen, ctx);
      ctx

  let run ?max_insns machine =
    let max_insns =
      match max_insns with Some n -> n | None -> !Runner.insn_budget
    in
    let ctx = ctx_for machine in
    Runner.wrap ~name ~machine ~perf:ctx.perf
      ~execute:(fun () -> execute ctx ~max_insns)
end

module Make_virt (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.virt
    end)

module Make_native (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.native
    end)
