open Sb_isa
open Sb_sim

let page_shift = 12
let page_mask = (1 lsl page_shift) - 1

module Timing = struct
  type t = {
    fetch_latency : int;
    decode_latency : int;
    execute_latency : int;
    mul_latency : int;
    cache_hit_latency : int;
    cache_miss_latency : int;
    walk_level_latency : int;
    exception_latency : int;
  }

  let default =
    {
      fetch_latency = 1;
      decode_latency = 1;
      execute_latency = 1;
      mul_latency = 3;
      cache_hit_latency = 1;
      cache_miss_latency = 20;
      walk_level_latency = 20;
      exception_latency = 12;
    }
end

module Make (A : Arch_sig.ARCH) = struct
  let name = Printf.sprintf "detailed-%s" A.name

  let features =
    [
      ("Execution Model", "Detailed Interpreter");
      ("Memory Access", "Modelled TLB");
      ("Code Generation", "None");
      ("Control Flow", "Interpreted");
      ("Interrupts", "Insn. Boundaries");
      ("Synchronous Exceptions", "Interpreted");
      ("Undefined Instruction", "Interpreted");
    ]

  let timing = Timing.default

  exception Guest_fault of {
    vector : Exn.vector;
    cause : int;
    far : int option;
    return_addr : int;
  }

  exception Stop of Run_result.stop_reason

  type stage =
    | Fetch
    | Decode_stage
    | Execute_stage of Uop.decoded
    | Mem_stage of Uop.decoded
    | Writeback of Uop.decoded

  type ctx = {
    machine : Machine.t;
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    itlb : Sb_mmu.Tlb.t;
    dtlb : Sb_mmu.Tlb.t;
    icache : Cache_model.t;
    dcache : Cache_model.t;
    events : stage Event_queue.t;
    mutable cycles : int;
    mutable mem_accesses : int list;  (* physical addresses touched by the current insn *)
    mutable extra_latency : int;      (* walk latencies accumulated during translation *)
    mutable timer_backlog : int;
  }

  let cycles_of_last_run = ref 0

  let make_ctx machine perf =
    {
      machine;
      cpu = machine.Machine.cpu;
      bus = machine.Machine.bus;
      perf;
      itlb = Sb_mmu.Tlb.create ~entries:32;
      dtlb = Sb_mmu.Tlb.create ~entries:64;
      icache = Cache_model.create ~size_bytes:(16 * 1024) ~line_bytes:32;
      dcache = Cache_model.create ~size_bytes:(32 * 1024) ~line_bytes:32;
      events = Event_queue.create ();
      cycles = 0;
      mem_accesses = [];
      extra_latency = 0;
      timer_backlog = 0;
    }

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

  let translate ctx tlb ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else begin
      let vpn = va lsr page_shift in
      match Sb_mmu.Tlb.lookup tlb ~vpn ~asid:0 with
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
          ctx.extra_latency <-
            ctx.extra_latency + (m.Sb_mmu.Walker.levels * timing.Timing.walk_level_latency);
          Sb_mmu.Tlb.insert tlb
            {
              Sb_mmu.Tlb.vpn;
              ppn = m.Sb_mmu.Walker.pa_page lsr page_shift;
              ap = m.Sb_mmu.Walker.ap;
              xn = m.Sb_mmu.Walker.xn;
              asid = 0;
            };
          if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
               kind priv
          then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
          else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission)
    end

  let read_phys ctx ~iaddr ~va width pa =
    ctx.mem_accesses <- pa :: ctx.mem_accesses;
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

  let write_phys ctx ~iaddr ~va width pa v =
    ctx.mem_accesses <- pa :: ctx.mem_accesses;
    if Sb_mem.Bus.is_ram ctx.bus pa then
      let ram = Sb_mem.Bus.ram ctx.bus in
      match width with
      | Uop.W8 -> Sb_mem.Phys_mem.write8 ram pa v
      | Uop.W16 -> Sb_mem.Phys_mem.write16 ram pa v
      | Uop.W32 -> Sb_mem.Phys_mem.write32 ram pa v
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
    let pa = translate ctx ctx.itlb ~va:a ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr in
    if Sb_mem.Bus.is_ram ctx.bus pa then
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa
    else bus_fault ~iaddr ~kind:Sb_mmu.Access.Execute ~va:a

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
      let pa = translate ctx ctx.dtlb ~va ~kind:Sb_mmu.Access.Read ~priv ~iaddr:d.Uop.addr in
      cpu.Cpu.regs.(rd) <- read_phys ctx ~iaddr:d.Uop.addr ~va width pa
    | Uop.Store { width; rs; base; offset; user } ->
      Perf.incr ctx.perf Perf.Stores;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let pa = translate ctx ctx.dtlb ~va ~kind:Sb_mmu.Access.Write ~priv ~iaddr:d.Uop.addr in
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
    | Uop.Undef -> undef ~iaddr:d.Uop.addr
    | Uop.Eret -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } -> (
      match Cop.read cpu ~creg with
      | Ok v ->
        Perf.incr ctx.perf Perf.Cop_reads;
        cpu.Cpu.regs.(rd) <- v
      | Error `Undefined -> undef ~iaddr:d.Uop.addr)
    | Uop.Cop_write { creg; src } -> (
      match Cop.write cpu ~creg ~value:(operand ctx src) with
      | Ok Cop.No_effect -> Perf.incr ctx.perf Perf.Cop_writes
      | Ok Cop.Translation_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        Sb_mmu.Tlb.flush ctx.itlb;
        Sb_mmu.Tlb.flush ctx.dtlb
      | Ok Cop.Asid_changed ->
        (* this model's TLBs are untagged: an address-space switch flushes,
           as in simulators without ASID support *)
        Perf.incr ctx.perf Perf.Cop_writes;
        Sb_mmu.Tlb.flush ctx.itlb;
        Sb_mmu.Tlb.flush ctx.dtlb
      | Error `Undefined -> undef ~iaddr:d.Uop.addr)
    | Uop.Tlb_inv_page r ->
      Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
      let vpn = cpu.Cpu.regs.(r) lsr page_shift in
      Sb_mmu.Tlb.invalidate_page ctx.itlb ~vpn ~asid:0;
      Sb_mmu.Tlb.invalidate_page ctx.dtlb ~vpn ~asid:0
    | Uop.Tlb_inv_all ->
      Perf.incr ctx.perf Perf.Tlb_flush_ops;
      Sb_mmu.Tlb.flush ctx.itlb;
      Sb_mmu.Tlb.flush ctx.dtlb
    | Uop.Wfi -> (
      match Runner.wait_for_interrupt ctx.machine ~perf:ctx.perf with
      | `Wake -> ()
      | `Deadlock -> raise (Stop Run_result.Wfi_deadlock))
    | Uop.Halt -> raise (Stop Run_result.Halted)

  let has_mul (d : Uop.decoded) =
    List.exists
      (function Uop.Alu { op = Uop.Mul; _ } -> true | _ -> false)
      d.Uop.uops

  (* Drive one instruction through the event pipeline. *)
  let step_insn ctx =
    let cpu = ctx.cpu in
    let pc = cpu.Cpu.pc in
    Event_queue.schedule ctx.events ~time:ctx.cycles Fetch;
    let rec drain () =
      match Event_queue.pop ctx.events with
      | None -> ()
      | Some (t, stage) ->
        (match stage with
        | Fetch ->
          ctx.extra_latency <- 0;
          let pa =
            translate ctx ctx.itlb ~va:pc ~kind:Sb_mmu.Access.Execute
              ~priv:cpu.Cpu.mode ~iaddr:pc
          in
          if not (Sb_mem.Bus.is_ram ctx.bus pa) then
            bus_fault ~iaddr:pc ~kind:Sb_mmu.Access.Execute ~va:pc;
          let latency =
            timing.Timing.fetch_latency + ctx.extra_latency
            + (if Cache_model.access ctx.icache pa then timing.Timing.cache_hit_latency
               else timing.Timing.cache_miss_latency)
          in
          Event_queue.schedule ctx.events ~time:(t + latency) Decode_stage
        | Decode_stage ->
          ctx.extra_latency <- 0;
          let d = A.decode ~fetch8:(fetch_byte ctx ~iaddr:pc) ~addr:pc in
          Perf.incr ctx.perf Perf.Decodes;
          Event_queue.schedule ctx.events
            ~time:(t + timing.Timing.decode_latency + ctx.extra_latency)
            (Execute_stage d)
        | Execute_stage d ->
          ctx.extra_latency <- 0;
          ctx.mem_accesses <- [];
          cpu.Cpu.pc <- (d.Uop.addr + d.Uop.length) land 0xFFFF_FFFF;
          List.iter (exec_uop ctx d) d.Uop.uops;
          let latency =
            (if has_mul d then timing.Timing.mul_latency
             else timing.Timing.execute_latency)
            + ctx.extra_latency
          in
          Event_queue.schedule ctx.events ~time:(t + latency) (Mem_stage d)
        | Mem_stage d ->
          let latency =
            List.fold_left
              (fun acc pa ->
                acc
                + (if Cache_model.access ctx.dcache pa then
                     timing.Timing.cache_hit_latency
                   else timing.Timing.cache_miss_latency))
              0 ctx.mem_accesses
          in
          Event_queue.schedule ctx.events ~time:(t + latency) (Writeback d)
        | Writeback d ->
          ctx.cycles <- t + 1;
          Perf.incr ctx.perf Perf.Insns;
          Perf.add ctx.perf Perf.Uops (List.length d.Uop.uops));
        drain ()
    in
    drain ()

  let deliver ctx (vector, cause, far, return_addr) =
    Perf.incr ctx.perf Perf.Exceptions_total;
    (match vector with
    | Exn.Data_abort -> Perf.incr ctx.perf Perf.Data_abort
    | Exn.Prefetch_abort -> Perf.incr ctx.perf Perf.Prefetch_abort
    | Exn.Undefined -> Perf.incr ctx.perf Perf.Undef_insn
    | Exn.Syscall -> Perf.incr ctx.perf Perf.Svc_taken
    | Exn.Irq -> Perf.incr ctx.perf Perf.Irq_taken
    | Exn.Reset -> ());
    ctx.cycles <- ctx.cycles + timing.Timing.exception_latency;
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
        if Machine.irq_pending ctx.machine then
          deliver ctx (Exn.Irq, Exn.Cause.irq, None, ctx.cpu.Cpu.pc)
        else begin
          (try step_insn ctx
           with Guest_fault { vector; cause; far; return_addr } ->
             Event_queue.clear ctx.events;
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
    with Stop reason ->
      Event_queue.clear ctx.events;
      reason

  (* Any run exit flushes the batched ticks, so snapshots taken between
     runs carry complete device time (see interp). *)
  let execute ctx ~max_insns =
    let stop = execute ctx ~max_insns in
    flush_timer ctx;
    stop

  let last_cycles () = !cycles_of_last_run

  (* Keep the last run's TLBs and cache models when the machine is
     unchanged ([(machine, state_gen)] match): stepping under a debugger
     stays warm, while external state changes force a rebuild. *)
  let session : (Machine.t * int * ctx) option ref = ref None

  let ctx_for machine =
    match !session with
    | Some (m, gen, ctx)
      when m == machine && gen = machine.Machine.state_gen ->
      (* the ctx owns its counter array; a new run starts it from zero *)
      Perf.reset ctx.perf;
      ctx
    | _ ->
      let ctx = make_ctx machine (Perf.create ()) in
      session := Some (machine, machine.Machine.state_gen, ctx);
      ctx

  let run ?max_insns machine =
    let max_insns =
      match max_insns with Some n -> n | None -> !Runner.insn_budget
    in
    let ctx = ctx_for machine in
    let result =
      Runner.wrap ~name ~machine ~perf:ctx.perf
        ~execute:(fun () -> execute ctx ~max_insns)
    in
    cycles_of_last_run := ctx.cycles;
    result
end
