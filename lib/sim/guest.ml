let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

exception Fault of {
  vector : Exn.vector;
  cause : int;
  far : int option;
  return_addr : int;
  retired : int;
}

exception Stop of { reason : Run_result.stop_reason; retired : int }

type t = {
  machine : Machine.t;
  cpu : Cpu.t;
  bus : Sb_mem.Bus.t;
  perf : Perf.t;
  code_pages : Bytes.t;
  mutable timer_backlog : int;
}

let create machine =
  let bus = machine.Machine.bus in
  let ram_pages = (Sb_mem.Bus.ram_size bus + page_mask) / page_size in
  {
    machine;
    cpu = machine.Machine.cpu;
    bus;
    perf = Perf.create ();
    code_pages = Bytes.make ((ram_pages + 7) / 8) '\000';
    timer_backlog = 0;
  }

(* ------------- the code-page bitmap -------------------------------------- *)

let[@inline] is_code g ppage =
  Char.code (Bytes.get g.code_pages (ppage lsr 3)) land (1 lsl (ppage land 7)) <> 0

let[@inline] mark_code g ppage =
  let i = ppage lsr 3 in
  Bytes.set g.code_pages i
    (Char.chr (Char.code (Bytes.get g.code_pages i) lor (1 lsl (ppage land 7))))

let code_invalidated g ppage =
  let i = ppage lsr 3 in
  Bytes.set g.code_pages i
    (Char.chr (Char.code (Bytes.get g.code_pages i) land lnot (1 lsl (ppage land 7))));
  Perf.incr g.perf Perf.Smc_invalidations

(* ------------- faults ---------------------------------------------------- *)

let abort ~iaddr ~retired ~kind ~va cause =
  let vector =
    match kind with
    | Sb_mmu.Access.Execute -> Exn.Prefetch_abort
    | Sb_mmu.Access.Read | Sb_mmu.Access.Write -> Exn.Data_abort
  in
  raise (Fault { vector; cause; far = Some va; return_addr = iaddr; retired })

let data_fault ~iaddr ~retired ~kind ~va fault =
  abort ~iaddr ~retired ~kind ~va (Exn.Cause.of_fault ~kind fault)

let bus_fault ~iaddr ~retired ~kind ~va =
  abort ~iaddr ~retired ~kind ~va Exn.Cause.bus_error

let trap vector cause ~return_addr ~retired =
  raise (Fault { vector; cause; far = None; return_addr; retired })

let undefined ~iaddr ~retired =
  trap Exn.Undefined Exn.Cause.undefined ~return_addr:iaddr ~retired

let syscall ~return_addr ~retired =
  trap Exn.Syscall Exn.Cause.syscall ~return_addr ~retired

(* ------------- translation ----------------------------------------------- *)

let walker_read32 g pa = try Sb_mem.Bus.read32 g.bus pa with Sb_mem.Bus.Fault _ -> 0

let walk g ~va ~kind ~iaddr ~retired =
  Perf.incr g.perf Perf.Mmu_walks;
  let ttbr = g.cpu.Cpu.cop.(Sb_isa.Cregs.ttbr) in
  match Sb_mmu.Walker.walk ~read32:(walker_read32 g) ~ttbr ~va with
  | Error fault -> data_fault ~iaddr ~retired ~kind ~va fault
  | Ok m ->
    Perf.add g.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
    m

(* ------------- physical access ------------------------------------------- *)

let[@inline] read_ram bus width pa =
  let ram = Sb_mem.Bus.ram bus in
  match width with
  | Sb_isa.Uop.W8 -> Sb_mem.Phys_mem.read8 ram pa
  | Sb_isa.Uop.W16 -> Sb_mem.Phys_mem.read16 ram pa
  | Sb_isa.Uop.W32 -> Sb_mem.Phys_mem.read32 ram pa

let[@inline] write_ram bus width pa v =
  let ram = Sb_mem.Bus.ram bus in
  match width with
  | Sb_isa.Uop.W8 -> Sb_mem.Phys_mem.write8 ram pa v
  | Sb_isa.Uop.W16 -> Sb_mem.Phys_mem.write16 ram pa v
  | Sb_isa.Uop.W32 -> Sb_mem.Phys_mem.write32 ram pa v

let read_io g ~iaddr ~retired ~va width pa =
  Perf.incr g.perf Perf.Io_reads;
  try
    match width with
    | Sb_isa.Uop.W8 -> Sb_mem.Bus.read8 g.bus pa
    | Sb_isa.Uop.W16 -> Sb_mem.Bus.read16 g.bus pa
    | Sb_isa.Uop.W32 -> Sb_mem.Bus.read32 g.bus pa
  with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~retired ~kind:Sb_mmu.Access.Read ~va

let write_io g ~iaddr ~retired ~va width pa v =
  Perf.incr g.perf Perf.Io_writes;
  try
    match width with
    | Sb_isa.Uop.W8 -> Sb_mem.Bus.write8 g.bus pa v
    | Sb_isa.Uop.W16 -> Sb_mem.Bus.write16 g.bus pa v
    | Sb_isa.Uop.W32 -> Sb_mem.Bus.write32 g.bus pa v
  with Sb_mem.Bus.Fault _ -> bus_fault ~iaddr ~retired ~kind:Sb_mmu.Access.Write ~va

let[@inline] read_phys g ~iaddr ~retired ~va width pa =
  if Sb_mem.Bus.is_ram g.bus pa then read_ram g.bus width pa
  else read_io g ~iaddr ~retired ~va width pa

let[@inline] write_phys g ~iaddr ~retired ~va width pa v =
  if Sb_mem.Bus.is_ram g.bus pa then begin
    write_ram g.bus width pa v;
    is_code g (pa lsr page_shift)
  end
  else begin
    write_io g ~iaddr ~retired ~va width pa v;
    false
  end

(* ------------- modelled register-file copies ----------------------------- *)

(* The core's world switch and the DBT's state sync copy the register file
   with typed [int array] loops, not [Array.blit]: [caml_array_blit] uses
   memmove only for a young destination and calls [caml_modify] per
   element once a minor GC has promoted the arrays, so the modelled cost
   would change several times over with GC phase.  Typed stores cost the
   same in any GC state.  The loop must stay unchecked (bounds checks at
   least double its cost) and is unrolled four ways, since a branch and a
   safepoint poll per word would cost more than the young memmove did. *)
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

let check_register_file ~who (cpu : Cpu.t) =
  if
    Array.length cpu.Cpu.regs <> 16
    || Array.length cpu.Cpu.cop <> Sb_isa.Cregs.count
  then invalid_arg (who ^ ": CPU register file is not 16 + Cregs.count words")

(* ------------- exceptions ------------------------------------------------ *)

let deliver g vector ~cause ~far ~return_addr =
  Perf.incr g.perf Perf.Exceptions_total;
  (match vector with
  | Exn.Data_abort -> Perf.incr g.perf Perf.Data_abort
  | Exn.Prefetch_abort -> Perf.incr g.perf Perf.Prefetch_abort
  | Exn.Undefined -> Perf.incr g.perf Perf.Undef_insn
  | Exn.Syscall -> Perf.incr g.perf Perf.Svc_taken
  | Exn.Irq -> Perf.incr g.perf Perf.Irq_taken
  | Exn.Reset -> ());
  Exn.enter g.cpu vector ~return_addr ?far ~cause ()

let halt ~retired = raise (Stop { reason = Run_result.Halted; retired })

let wait_for_interrupt g ~retired =
  Perf.incr g.perf Perf.Wfi_waits;
  let intc = g.machine.Machine.intc and timer = g.machine.Machine.timer in
  let budget = ref 10_000_000 in
  while Sb_mem.Intc.pending intc land Sb_mem.Intc.enabled intc = 0 do
    if !budget <= 0 then raise (Stop { reason = Run_result.Wfi_deadlock; retired });
    Sb_mem.Timer.advance timer 1024;
    budget := !budget - 1024
  done

(* ------------- device time ----------------------------------------------- *)

let[@inline] tick g n =
  let backlog = g.timer_backlog + n in
  if backlog >= 64 then begin
    Sb_mem.Timer.advance g.machine.Machine.timer backlog;
    g.timer_backlog <- 0
  end
  else g.timer_backlog <- backlog

let flush_timer g =
  if g.timer_backlog > 0 then begin
    Sb_mem.Timer.advance g.machine.Machine.timer g.timer_backlog;
    g.timer_backlog <- 0
  end

(* Timer state is then a pure function of retired instructions at every
   phase edge, so a run resumed from a phase snapshot ticks identically to
   one that crossed the boundary itself; a pending switch request stops
   the run here, with the batched ticks already pushed to the device. *)
let phase_sync g =
  let benchdev = g.machine.Machine.benchdev in
  flush_timer g;
  Sb_mem.Benchdev.clear_sync benchdev;
  if Sb_mem.Benchdev.stop_pending benchdev then
    raise (Stop { reason = Run_result.Switch_point; retired = 0 })

(* ------------- a run and the session -------------------------------------- *)

(* Run [execute] with phase-snapshot callbacks installed on the machine's
   bench device, and assemble the result. *)
let wrap ~name ~machine ~perf ~execute =
  let kernel_start = ref None in
  let kernel_perf = ref None in
  let benchdev = machine.Machine.benchdev in
  (* A run resumed from a snapshot taken mid-kernel starts with the phase
     already Kernel and no timestamp: open the kernel window at run start so
     both the perf diff and kernel_seconds cover exactly this run's share. *)
  if Sb_mem.Benchdev.phase benchdev = Sb_mem.Benchdev.Kernel then begin
    kernel_start := Some (Perf.copy perf);
    Sb_mem.Benchdev.mark_kernel_start benchdev
  end;
  Sb_mem.Benchdev.set_on_phase benchdev (fun phase ->
      match phase with
      | Sb_mem.Benchdev.Kernel -> kernel_start := Some (Perf.copy perf)
      | Sb_mem.Benchdev.Cleanup -> (
        match !kernel_start with
        | Some before -> kernel_perf := Some (Perf.diff ~after:perf ~before)
        | None -> ())
      | Sb_mem.Benchdev.Setup -> ());
  let t0 = Unix.gettimeofday () in
  let stop = execute () in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  Sb_mem.Benchdev.set_on_phase benchdev ignore;
  let insns_into_kernel =
    if Sb_mem.Benchdev.phase benchdev = Sb_mem.Benchdev.Kernel then
      Option.map
        (fun before -> Perf.get perf Perf.Insns - Perf.get before Perf.Insns)
        !kernel_start
    else None
  in
  {
    Run_result.engine = name;
    stop;
    wall_seconds;
    kernel_seconds = Sb_mem.Benchdev.kernel_seconds benchdev;
    (* engines keep (and reset) their live counter array across runs on
       the same machine, so the result gets its own copy — results held
       across runs must not see later runs' counts *)
    perf = Perf.copy perf;
    kernel_perf = !kernel_perf;
    exit_code =
      (match Sb_mem.Benchdev.exit_code benchdev with
      | Some code -> code
      | None -> 0);
    uart_output = Sb_mem.Uart.contents machine.Machine.uart;
    tested_ops = Sb_mem.Benchdev.op_count benchdev;
    insns_into_kernel;
  }

type 'ctx session = (int * t * 'ctx) option ref

let session () = ref None

let run session ~name ~make ~execute ?max_insns machine =
  let max_insns = match max_insns with Some n -> n | None -> !Runner.insn_budget in
  let g, ctx =
    match !session with
    | Some (gen, g, ctx)
      when g.machine == machine && gen = machine.Machine.state_gen ->
      (* the context owns its counter array (compiled code may capture
         it); a new run starts it from zero in place *)
      Perf.reset g.perf;
      (g, ctx)
    | prev ->
      let g = create machine in
      let ctx = make ?prev:(Option.map (fun (_, _, ctx) -> ctx) prev) g in
      session := Some (machine.Machine.state_gen, g, ctx);
      (g, ctx)
  in
  wrap ~name ~machine ~perf:g.perf ~execute:(fun () ->
      let stop = execute ctx ~max_insns in
      (* at every run boundary the timer count is an exact function of
         retired instructions: a snapshot taken between runs carries
         complete device time *)
      flush_timer g;
      stop)
