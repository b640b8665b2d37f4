open Sb_isa
open Sb_sim

module Config = struct
  type t = { tlb_entries : int; predecode : bool; front_cache : bool }

  let default = { tlb_entries = 256; predecode = true; front_cache = true }
end

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

(* direct-mapped fetch front cache: virtual page -> predecoded page array *)
let fetch_front_bits = 6
let fetch_front_size = 1 lsl fetch_front_bits
let fetch_front_mask = fetch_front_size - 1

module Make_configured
    (A : Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
struct
  let name = Printf.sprintf "interp-%s" A.name

  let features =
    [
      ("Execution Model", "Fast Interpreter");
      ("Memory Access", "Single Level Cache");
      ("Code Generation", "None");
      ("Control Flow", "Interpreted");
      ("Interrupts", "Insn. Boundaries");
      ("Synchronous Exceptions", "Interpreted");
      ("Undefined Instruction", "Interpreted");
    ]

  exception Guest_fault of {
    vector : Exn.vector;
    cause : int;
    far : int option;
    return_addr : int;
  }

  exception Stop of Run_result.stop_reason

  (* One slot of the fetch front cache.  A hit proves: this virtual page
     translated to the page whose predecode array is [fs_arr], with execute
     permission, under this ASID and privilege, and no translation-affecting
     event ([fs_gen]) has happened since.  Self-modifying code needs no tag:
     SMC invalidation clears the array in place, so stale entries read as
     [None] and fall back to the slow path. *)
  type fetch_slot = {
    mutable fs_vpn : int;  (* -1 = empty *)
    mutable fs_asid : int;
    mutable fs_gen : int;
    mutable fs_mode : Sb_mmu.Access.privilege;
    mutable fs_arr : Uop.decoded option array;
  }

  type ctx = {
    machine : Machine.t;
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    tlb : Sb_mmu.Tlb.t;
    decode_cache : (int, Uop.decoded option array) Hashtbl.t;
    fetch_front : fetch_slot array;
    mutable fetch_gen : int;
        (* bumped on any event that may change va->pa mappings, mirroring
           the DBT's chain_gen *)
    code_pages : Bytes.t;
    mutable timer_backlog : int;
  }

  (* Predecode page arrays of replaced contexts, for [fetch_decode_slow]
     to refill instead of allocating.  A fresh 32 KiB array would land on
     heap pages the OS has just taken back, and fault on first use. *)
  let spare_pages : Uop.decoded option array Stack.t = Stack.create ()

  let page_array () =
    match Stack.pop_opt spare_pages with
    | Some arr ->
      Array.fill arr 0 page_size None;
      arr
    | None -> Array.make page_size None

  (* [prev] is the context this one replaces, which nothing can reach any
     more: its predecode arrays become spares. *)
  let make_ctx ?prev machine perf =
    let ram_pages = (Sb_mem.Bus.ram_size machine.Machine.bus + page_mask) / page_size in
    Option.iter
      (fun prev ->
        Hashtbl.iter (fun _ arr -> Stack.push arr spare_pages) prev.decode_cache)
      prev;
    {
      machine;
      cpu = machine.Machine.cpu;
      bus = machine.Machine.bus;
      perf;
      tlb = Sb_mmu.Tlb.create ~entries:C.config.Config.tlb_entries;
      decode_cache = Hashtbl.create 64;
      fetch_front =
        Array.init fetch_front_size (fun _ ->
            {
              fs_vpn = -1;
              fs_asid = 0;
              fs_gen = 0;
              fs_mode = Sb_mmu.Access.Kernel;
              fs_arr = [||];
            });
      fetch_gen = 0;
      code_pages = Bytes.make ((ram_pages + 7) / 8) '\000';
      timer_backlog = 0;
    }

  (* code-page bitmap for self-modifying-code detection *)
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

  let data_fault ~iaddr ~kind ~va fault =
    let cause = Exn.Cause.of_fault ~kind fault in
    match kind with
    | Sb_mmu.Access.Execute ->
      raise
        (Guest_fault
           { vector = Exn.Prefetch_abort; cause; far = Some va; return_addr = va })
    | Sb_mmu.Access.Read | Sb_mmu.Access.Write ->
      raise
        (Guest_fault
           { vector = Exn.Data_abort; cause; far = Some va; return_addr = iaddr })

  let bus_fault ~iaddr ~kind ~va =
    match kind with
    | Sb_mmu.Access.Execute ->
      raise
        (Guest_fault
           {
             vector = Exn.Prefetch_abort;
             cause = Exn.Cause.bus_error;
             far = Some va;
             return_addr = va;
           })
    | Sb_mmu.Access.Read | Sb_mmu.Access.Write ->
      raise
        (Guest_fault
           {
             vector = Exn.Data_abort;
             cause = Exn.Cause.bus_error;
             far = Some va;
             return_addr = iaddr;
           })

  let walker_read32 ctx pa =
    try Sb_mem.Bus.read32 ctx.bus pa with Sb_mem.Bus.Fault _ -> 0

  let translate ctx ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else begin
      let vpn = va lsr page_shift in
      let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
      match Sb_mmu.Tlb.lookup ctx.tlb ~vpn ~asid with
      | Some e ->
        Perf.incr ctx.perf Perf.Tlb_hit;
        if Sb_mmu.Access.Ap.permits ~ap:e.Sb_mmu.Tlb.ap ~xn:e.Sb_mmu.Tlb.xn kind priv
        then (e.Sb_mmu.Tlb.ppn lsl page_shift) lor (va land page_mask)
        else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      | None -> (
        Perf.incr ctx.perf Perf.Tlb_miss;
        Perf.incr ctx.perf Perf.Mmu_walks;
        let ttbr = ctx.cpu.Cpu.cop.(Cregs.ttbr) in
        match Sb_mmu.Walker.walk ~read32:(walker_read32 ctx) ~ttbr ~va with
        | Error fault -> data_fault ~iaddr ~kind ~va fault
        | Ok m ->
          Perf.add ctx.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
          Sb_mmu.Tlb.insert ctx.tlb
            {
              Sb_mmu.Tlb.vpn;
              ppn = m.Sb_mmu.Walker.pa_page lsr page_shift;
              ap = m.Sb_mmu.Walker.ap;
              xn = m.Sb_mmu.Walker.xn;
              asid;
            };
          if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
               kind priv
          then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
          else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission)
    end

  let read_phys ctx ~iaddr ~va width pa =
    if Sb_mem.Bus.is_ram ctx.bus pa then
      let ram = Sb_mem.Bus.ram ctx.bus in
      match width with
      | Uop.W8 -> Sb_mem.Phys_mem.read8 ram pa
      | Uop.W16 -> Sb_mem.Phys_mem.read16 ram pa
      | Uop.W32 -> Sb_mem.Phys_mem.read32 ram pa
    else begin
      Perf.incr ctx.perf Perf.Io_reads;
      try
        match width with
        | Uop.W8 -> Sb_mem.Bus.read8 ctx.bus pa
        | Uop.W16 -> Sb_mem.Bus.read16 ctx.bus pa
        | Uop.W32 -> Sb_mem.Bus.read32 ctx.bus pa
      with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~kind:Sb_mmu.Access.Read ~va
    end

  let smc_check ctx pa =
    let ppage = pa lsr page_shift in
    if code_bit_get ctx ppage then begin
      (* clear in place: the page array is reused when the code is
         re-decoded, as a pre-decoding interpreter would *)
      (match Hashtbl.find_opt ctx.decode_cache ppage with
      | Some arr -> Array.fill arr 0 page_size None
      | None -> ());
      code_bit_clear ctx ppage;
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
      Perf.incr ctx.perf Perf.Io_writes;
      try
        match width with
        | Uop.W8 -> Sb_mem.Bus.write8 ctx.bus pa v
        | Uop.W16 -> Sb_mem.Bus.write16 ctx.bus pa v
        | Uop.W32 -> Sb_mem.Bus.write32 ctx.bus pa v
      with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~kind:Sb_mmu.Access.Write ~va
    end

  let fetch_byte ctx ~iaddr a =
    let pa = translate ctx ~va:a ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr in
    if Sb_mem.Bus.is_ram ctx.bus pa then
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa
    else bus_fault ~iaddr ~kind:Sb_mmu.Access.Execute ~va:a

  let decode_at ctx va =
    Perf.incr ctx.perf Perf.Decodes;
    A.decode ~fetch8:(fetch_byte ctx ~iaddr:va) ~addr:va

  let use_fetch_front = C.config.Config.predecode && C.config.Config.front_cache

  let fetch_decode_slow ctx va =
    let pa =
      translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va
    in
    if not (Sb_mem.Bus.is_ram ctx.bus pa) then
      bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va
    else if not C.config.Config.predecode then decode_at ctx va
    else begin
      let ppage = pa lsr page_shift in
      let arr =
        match Hashtbl.find_opt ctx.decode_cache ppage with
        | Some arr -> arr
        | None ->
          let arr = page_array () in
          Hashtbl.add ctx.decode_cache ppage arr;
          code_bit_set ctx ppage;
          arr
      in
      if use_fetch_front then begin
        (* the translation above vouched for (vpn, asid, mode) -> arr with
           execute permission; remember it for subsequent fetches *)
        let vpn = va lsr page_shift in
        let slot = ctx.fetch_front.(vpn land fetch_front_mask) in
        slot.fs_vpn <- vpn;
        slot.fs_asid <- ctx.cpu.Cpu.cop.(Cregs.asid);
        slot.fs_gen <- ctx.fetch_gen;
        slot.fs_mode <- ctx.cpu.Cpu.mode;
        slot.fs_arr <- arr
      end;
      match arr.(pa land page_mask) with
      | Some d when d.Uop.addr = va -> d
      | _ ->
        let d = decode_at ctx va in
        (* never cache an instruction that straddles a page: its tail bytes
           live on a page whose invalidation would not reach this entry *)
        if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
        else begin
          arr.(pa land page_mask) <- Some d;
          (* the page holds decoded state again: re-arm write detection *)
          code_bit_set ctx ppage;
          d
        end
    end

  (* Fast path: one tag compare skips the TLB probe, the permission check
     and the decode-cache hash lookup for fetches that stay on a recently
     fetched page — the common case for straight-line code and tight
     loops. *)
  let fetch_decode ctx va =
    if not use_fetch_front then fetch_decode_slow ctx va
    else begin
      let vpn = va lsr page_shift in
      let slot =
        Array.unsafe_get ctx.fetch_front (vpn land fetch_front_mask)
      in
      if
        slot.fs_vpn = vpn
        && slot.fs_gen = ctx.fetch_gen
        && slot.fs_asid = ctx.cpu.Cpu.cop.(Cregs.asid)
        && slot.fs_mode = ctx.cpu.Cpu.mode
      then begin
        match slot.fs_arr.(va land page_mask) with
        | Some d when d.Uop.addr = va ->
          Perf.incr ctx.perf Perf.Front_cache_hits;
          d
        | _ -> fetch_decode_slow ctx va
      end
      else fetch_decode_slow ctx va
    end

  let operand ctx = function
    | Uop.Reg r -> ctx.cpu.Cpu.regs.(r)
    | Uop.Imm v -> v land 0xFFFF_FFFF

  let flush_translation ctx =
    Sb_mmu.Tlb.flush ctx.tlb;
    ctx.fetch_gen <- ctx.fetch_gen + 1

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
        (match target with
        | Uop.Direct t -> cpu.Cpu.pc <- t
        | Uop.Indirect r -> cpu.Cpu.pc <- cpu.Cpu.regs.(r));
        if cpu.Cpu.pc lsr page_shift <> d.Uop.addr lsr page_shift then
          Perf.incr ctx.perf
            (match target with
            | Uop.Direct _ -> Perf.Branch_cross_direct
            | Uop.Indirect _ -> Perf.Branch_cross_indirect)
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
      raise
        (Guest_fault
           {
             vector = Exn.Undefined;
             cause = Exn.Cause.undefined;
             far = None;
             return_addr = d.Uop.addr;
           })
    | Uop.Eret -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } -> (
      match Cop.read cpu ~creg with
      | Ok v ->
        Perf.incr ctx.perf Perf.Cop_reads;
        cpu.Cpu.regs.(rd) <- v
      | Error `Undefined ->
        raise
          (Guest_fault
             {
               vector = Exn.Undefined;
               cause = Exn.Cause.undefined;
               far = None;
               return_addr = d.Uop.addr;
             }))
    | Uop.Cop_write { creg; src } -> (
      let value = operand ctx src in
      match Cop.write cpu ~creg ~value with
      | Ok Cop.No_effect -> Perf.incr ctx.perf Perf.Cop_writes
      | Ok Cop.Translation_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        flush_translation ctx
      | Ok Cop.Asid_changed ->
        (* tagged TLB: switching address spaces keeps the entries *)
        Perf.incr ctx.perf Perf.Cop_writes
      | Error `Undefined ->
        raise
          (Guest_fault
             {
               vector = Exn.Undefined;
               cause = Exn.Cause.undefined;
               far = None;
               return_addr = d.Uop.addr;
             }))
    | Uop.Tlb_inv_page r ->
      Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
      Sb_mmu.Tlb.invalidate_page ctx.tlb
        ~vpn:(cpu.Cpu.regs.(r) lsr page_shift)
        ~asid:cpu.Cpu.cop.(Cregs.asid);
      ctx.fetch_gen <- ctx.fetch_gen + 1
    | Uop.Tlb_inv_all ->
      Perf.incr ctx.perf Perf.Tlb_flush_ops;
      Sb_mmu.Tlb.flush ctx.tlb;
      ctx.fetch_gen <- ctx.fetch_gen + 1
    | Uop.Wfi -> (
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
    Perf.add ctx.perf Perf.Uops (List.length d.uops)

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

  let take_irq ctx =
    deliver ctx (Exn.Irq, Exn.Cause.irq, None, ctx.cpu.Cpu.pc)

  let timer_tick ctx =
    ctx.timer_backlog <- ctx.timer_backlog + 1;
    if ctx.timer_backlog >= 64 then begin
      Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
      ctx.timer_backlog <- 0
    end

  let flush_timer ctx =
    if ctx.timer_backlog > 0 then begin
      Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
      ctx.timer_backlog <- 0
    end

  (* Leaving at a switch point: push any batched timer ticks to the device
     so the snapshot (and the engine that resumes it) sees the same timer
     state a cold run would at this instruction. *)
  let switch_stop ctx =
    flush_timer ctx;
    raise (Stop Run_result.Switch_point)

  (* A phase boundary was crossed: flush batched device time so timer
     state is a pure function of retired instructions at every phase
     edge — a run resumed from a phase snapshot then ticks identically
     to one that crossed the boundary itself. *)
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
        if Machine.irq_pending ctx.machine then take_irq ctx
        else begin
          (try
             let d = fetch_decode ctx ctx.cpu.Cpu.pc in
             exec_insn ctx d
           with Guest_fault { vector; cause; far; return_addr } ->
             deliver ctx (vector, cause, far, return_addr));
          incr steps;
          timer_tick ctx
        end
      done;
      Run_result.Insn_limit
    with Stop reason -> reason

  (* Any run exit flushes the batched ticks: at every run boundary the
     timer count is then an exact function of retired instructions, so a
     snapshot taken between runs (engine switch, debugger step) carries
     complete device time and no ticks are stranded in the context. *)
  let execute ctx ~max_insns =
    let stop = execute ctx ~max_insns in
    flush_timer ctx;
    stop

  (* The last run's translation state (TLB, decode cache, fetch front) is
     kept and revalidated against [(machine, state_gen)]: a debugger
     stepping the same machine reuses it instead of re-deriving everything
     per instruction, while any external state change (load_program,
     reset, snapshot restore, Machine.touch) forces a rebuild, which
     recycles the replaced context's predecode arrays (see [make_ctx]): the
     session holds the only reference to it, and engines are not
     re-entrant. *)
  let session : (Machine.t * int * ctx) option ref = ref None

  let ctx_for machine =
    match !session with
    | Some (m, gen, ctx)
      when m == machine && gen = machine.Machine.state_gen ->
      (* the ctx owns its counter array (compiled state may capture it);
         a new run starts it from zero in place *)
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

module Make (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.default
    end)
