open Sb_isa
open Sb_sim

type technique =
  | Fast_interp of { predecode : bool }
  | Direct of { vm_exit_rounds : int }
  | Detailed

module type CONFIG = sig
  val name : string
  val features : (string * string) list
  val technique : technique
end

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

(* Fast interpreter: the unified TLB, and a direct-mapped fetch front
   cache from virtual page to predecoded page array. *)
let tlb_entries = 256
let fetch_front_bits = 6
let fetch_front_size = 1 lsl fetch_front_bits
let fetch_front_mask = fetch_front_size - 1

(* Direct execution: a flat "hardware" translation cache, one packed slot
   per virtual page of the whole 32-bit space.  Layout:
   [gen | asid:8 | ppn:20 | ap:2 | xn:1 | valid:1] — a tagged hardware TLB,
   so address-space switches need no flush. *)
let vpn_space = 1 lsl 20

(* the largest generation whose tag survives [lsl 32] in a positive int *)
let max_tlb_gen = max_int lsr 32

(* Detailed model: latencies in cycles. *)
let fetch_latency = 1
let decode_latency = 1
let execute_latency = 1
let mul_latency = 3
let cache_hit_latency = 1
let cache_miss_latency = 20
let walk_level_latency = 20
let exception_latency = 12

module Make (A : Arch_sig.ARCH) (C : CONFIG) = struct
  let name = C.name
  let features = C.features

  (* The technique as constants.  Each path tests one of them at its top
     and then runs that technique's code written out in full: without
     flambda, a call per instruction or per access through a functor
     argument or a closure would cost several percent. *)
  let host_tlb = match C.technique with Direct _ -> true | _ -> false
  let detailed = match C.technique with Detailed -> true | _ -> false
  let interp = match C.technique with Fast_interp _ -> true | _ -> false

  (* interp's fetch front cache sits over its predecoded pages; without
     predecoding it decodes on every fetch *)
  let front_cache =
    match C.technique with Fast_interp { predecode } -> predecode | _ -> false

  let vm_exit_rounds =
    match C.technique with Direct { vm_exit_rounds } -> vm_exit_rounds | _ -> 0

  exception Guest_fault of {
    vector : Exn.vector;
    cause : int;
    far : int option;
    return_addr : int;
  }

  exception Stop of Run_result.stop_reason

  (* One slot of interp's fetch front cache.  A hit proves: this virtual
     page translated to the page whose predecode array is [fs_arr], with
     execute permission, under this ASID and privilege, and no
     translation-affecting event ([fs_gen]) has happened since.
     Self-modifying code needs no tag: SMC invalidation clears the array in
     place, so stale entries read as [None] and fall back to the slow
     path. *)
  type fetch_slot = {
    mutable fs_vpn : int;  (* -1 = empty *)
    mutable fs_asid : int;
    mutable fs_gen : int;
    mutable fs_mode : Sb_mmu.Access.privilege;
    mutable fs_arr : Uop.decoded option array;
  }

  (* the detailed model's pipeline stages *)
  type stage = Fetch | Decode | Execute of Uop.decoded | Memory | Writeback

  type ctx = {
    machine : Machine.t;
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    (* modelled TLBs: interp's unified TLB is both, detailed's are split *)
    itlb : Sb_mmu.Tlb.t;
    dtlb : Sb_mmu.Tlb.t;
    host_tlb : int array;
    mutable tlb_gen : int;
    decode_cache : (int, Uop.decoded option array) Hashtbl.t;
    code_pages : Bytes.t;  (* pages holding predecoded instructions *)
    fetch_front : fetch_slot array;
    mutable fetch_gen : int;
        (* the front cache's tag: bumped on any event that may change
           va->pa mappings, mirroring the DBT's chain_gen *)
    (* direct execution's current-page fetch: hardware streams fetches
       within a page *)
    mutable cur_fetch_page : int;
    mutable cur_fetch_arr : Uop.decoded option array;
    shadow_regs : int array;
    shadow_cop : int array;
    mutable exit_token : int;
    icache : Cache_model.t;
    dcache : Cache_model.t;
    events : stage Event_queue.t;
    mutable cycles : int;
    mutable mem_accesses : int list;  (* physical addresses touched by the current insn *)
    mutable extra_latency : int;      (* walk latencies accumulated during translation *)
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

  (* Predecode page arrays of replaced contexts, for a fetch to refill
     instead of allocating.  A fresh 32 KiB array would land on heap pages
     the OS has just taken back, and fault on first use. *)
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
    if
      vm_exit_rounds > 0
      && (Array.length cpu.Cpu.regs <> 16 || Array.length cpu.Cpu.cop <> Cregs.count)
    then invalid_arg "Core: CPU register file is not 16 + Cregs.count words";
    Option.iter
      (fun prev ->
        Hashtbl.iter (fun _ arr -> Stack.push arr spare_pages) prev.decode_cache)
      prev;
    let host_tlb, tlb_gen =
      match prev with
      | Some prev when host_tlb -> (prev.host_tlb, next_gen prev.host_tlb prev.tlb_gen)
      | _ -> ((if host_tlb then Array.make vpn_space 0 else [||]), 1)
    in
    let itlb = Sb_mmu.Tlb.create ~entries:(if detailed then 32 else tlb_entries) in
    (* only the detailed model reads its caches; the others get one line *)
    let cache size_bytes =
      Cache_model.create ~size_bytes:(if detailed then size_bytes else 32) ~line_bytes:32
    in
    {
      machine;
      cpu;
      bus = machine.Machine.bus;
      perf;
      itlb;
      dtlb = (if detailed then Sb_mmu.Tlb.create ~entries:64 else itlb);
      host_tlb;
      tlb_gen;
      decode_cache = Hashtbl.create 64;
      code_pages = Bytes.make ((ram_pages + 7) / 8) '\000';
      fetch_front =
        (if front_cache then
           Array.init fetch_front_size (fun _ ->
               {
                 fs_vpn = -1;
                 fs_asid = 0;
                 fs_gen = 0;
                 fs_mode = Sb_mmu.Access.Kernel;
                 fs_arr = empty_arr;
               })
         else [||]);
      fetch_gen = 0;
      cur_fetch_page = -1;
      cur_fetch_arr = empty_arr;
      shadow_regs = Array.make 16 0;
      shadow_cop = Array.make Cregs.count 0;
      exit_token = 0;
      icache = cache (16 * 1024);
      dcache = cache (32 * 1024);
      events = Event_queue.create ();
      cycles = 0;
      mem_accesses = [];
      extra_latency = 0;
      timer_backlog = 0;
    }

  (* ------------- traps -------------------------------------------------- *)

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

  (* A trap to the hypervisor, on the engines that model one: [reason] 1 is
     a device read, 2 a device write, 3 an undefined instruction or
     coprocessor access, 4 WFI and 5 IRQ injection. *)
  let world_switch ctx reason =
    Perf.incr ctx.perf Perf.Vm_exits;
    let cpu = ctx.cpu in
    for round = 1 to vm_exit_rounds do
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

  (* inlined, so the engines that take no exits make no call *)
  let[@inline] vm_exit ctx reason = if vm_exit_rounds > 0 then world_switch ctx reason

  (* ------------- faults ------------------------------------------------- *)

  (* Every abort returns to the faulting instruction, also when the fault
     is on a tail byte of an instruction that straddles a page. *)
  let abort ~iaddr ~kind ~va cause =
    let vector =
      match kind with
      | Sb_mmu.Access.Execute -> Exn.Prefetch_abort
      | Sb_mmu.Access.Read | Sb_mmu.Access.Write -> Exn.Data_abort
    in
    raise (Guest_fault { vector; cause; far = Some va; return_addr = iaddr })

  let data_fault ~iaddr ~kind ~va fault =
    abort ~iaddr ~kind ~va (Exn.Cause.of_fault ~kind fault)

  let bus_fault ~iaddr ~kind ~va = abort ~iaddr ~kind ~va Exn.Cause.bus_error

  let undef ctx ~iaddr =
    (* undefined instructions trap to the hypervisor before being
       reflected back into the guest *)
    vm_exit ctx 3;
    raise
      (Guest_fault
         { vector = Exn.Undefined; cause = Exn.Cause.undefined; far = None; return_addr = iaddr })

  (* ------------- translation -------------------------------------------- *)

  let walker_read32 ctx pa =
    try Sb_mem.Bus.read32 ctx.bus pa with Sb_mem.Bus.Fault _ -> 0

  (* A page-table walk on a translation miss.  Walk latency accrues for
     the detailed pipeline, the only reader of [extra_latency]. *)
  let walk ctx ~va ~kind ~iaddr =
    Perf.incr ctx.perf Perf.Mmu_walks;
    let ttbr = ctx.cpu.Cpu.cop.(Cregs.ttbr) in
    match Sb_mmu.Walker.walk ~read32:(walker_read32 ctx) ~ttbr ~va with
    | Error fault -> data_fault ~iaddr ~kind ~va fault
    | Ok m ->
      Perf.add ctx.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
      ctx.extra_latency <-
        ctx.extra_latency + (m.Sb_mmu.Walker.levels * walk_level_latency);
      m

  (* the physical address of [va] under a walked mapping, if it permits
     the access *)
  let walked (m : Sb_mmu.Walker.mapping) ~va ~kind ~priv ~iaddr =
    if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn kind priv
    then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
    else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission

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

  (* A modelled-TLB lookup, with a walk and a fill on a miss.  Inlined at
     each use below, so each technique gets its own tight copy. *)
  let[@inline] tlb_translate ctx tlb ~asid ~va ~kind ~priv ~iaddr =
    let vpn = va lsr page_shift in
    match Sb_mmu.Tlb.lookup tlb ~vpn ~asid with
    | Some e ->
      Perf.incr ctx.perf Perf.Tlb_hit;
      if Sb_mmu.Access.Ap.permits ~ap:e.Sb_mmu.Tlb.ap ~xn:e.Sb_mmu.Tlb.xn kind priv
      then (e.Sb_mmu.Tlb.ppn lsl page_shift) lor (va land page_mask)
      else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
    | None ->
      Perf.incr ctx.perf Perf.Tlb_miss;
      let m = walk ctx ~va ~kind ~iaddr in
      Sb_mmu.Tlb.insert tlb
        {
          Sb_mmu.Tlb.vpn;
          ppn = m.Sb_mmu.Walker.pa_page lsr page_shift;
          ap = m.Sb_mmu.Walker.ap;
          xn = m.Sb_mmu.Walker.xn;
          asid;
        };
      walked m ~va ~kind ~priv ~iaddr

  let translate ctx ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else if host_tlb then begin
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
        let m = walk ctx ~va ~kind ~iaddr in
        ctx.host_tlb.(slot_index ~vpn ~asid) <-
          pack ctx ~ppn:(m.Sb_mmu.Walker.pa_page lsr page_shift) ~ap:m.Sb_mmu.Walker.ap
            ~xn:m.Sb_mmu.Walker.xn ~asid;
        walked m ~va ~kind ~priv ~iaddr
      end
    end
    else if detailed then
      (* split TLBs, untagged: every entry is filed under ASID 0 *)
      let tlb =
        match kind with
        | Sb_mmu.Access.Execute -> ctx.itlb
        | Sb_mmu.Access.Read | Sb_mmu.Access.Write -> ctx.dtlb
      in
      tlb_translate ctx tlb ~asid:0 ~va ~kind ~priv ~iaddr
    else
      (* interp's unified TLB *)
      tlb_translate ctx ctx.itlb ~asid:ctx.cpu.Cpu.cop.(Cregs.asid) ~va ~kind ~priv
        ~iaddr

  (* the detailed model's fetches, one per fetch stage and one per
     instruction byte decoded: its I-TLB under ASID 0, with no technique
     branch *)
  let itlb_translate ctx ~va ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else
      tlb_translate ctx ctx.itlb ~asid:0 ~va ~kind:Sb_mmu.Access.Execute
        ~priv:ctx.cpu.Cpu.mode ~iaddr

  let flush_translation ctx =
    if host_tlb then ctx.tlb_gen <- next_gen ctx.host_tlb ctx.tlb_gen
    else begin
      Sb_mmu.Tlb.flush ctx.itlb;
      if detailed then Sb_mmu.Tlb.flush ctx.dtlb;
      ctx.fetch_gen <- ctx.fetch_gen + 1
    end

  let invalidate_page ctx va =
    let vpn = va lsr page_shift in
    if host_tlb then
      ctx.host_tlb.(slot_index ~vpn ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)) <- 0
    else begin
      let asid = if detailed then 0 else ctx.cpu.Cpu.cop.(Cregs.asid) in
      Sb_mmu.Tlb.invalidate_page ctx.itlb ~vpn ~asid;
      if detailed then Sb_mmu.Tlb.invalidate_page ctx.dtlb ~vpn ~asid;
      ctx.fetch_gen <- ctx.fetch_gen + 1
    end

  (* ------------- memory ------------------------------------------------- *)

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

  let smc_check ctx pa =
    let ppage = pa lsr page_shift in
    if code_bit_get ctx ppage then begin
      (* clear in place: the page array is reused when the code is
         re-decoded, as a pre-decoding interpreter would *)
      (match Hashtbl.find ctx.decode_cache ppage with
      | arr -> Array.fill arr 0 page_size None
      | exception Not_found -> ());
      code_bit_clear ctx ppage;
      Perf.incr ctx.perf Perf.Smc_invalidations
    end

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

  (* ------------- fetch -------------------------------------------------- *)

  let fetch_byte ctx ~iaddr a =
    let pa =
      if detailed then itlb_translate ctx ~va:a ~iaddr
      else translate ctx ~va:a ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr
    in
    if Sb_mem.Bus.is_ram ctx.bus pa then
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa
    else bus_fault ~iaddr ~kind:Sb_mmu.Access.Execute ~va:a

  let decode_at ctx va =
    Perf.incr ctx.perf Perf.Decodes;
    A.decode ~fetch8:(fetch_byte ctx ~iaddr:va) ~addr:va

  (* the predecode array of a physical page fetched from for the first
     time *)
  let new_page ctx ppage =
    let arr = page_array () in
    Hashtbl.add ctx.decode_cache ppage arr;
    code_bit_set ctx ppage;
    arr

  let decode_into ctx arr ~va ~pa =
    let d = decode_at ctx va in
    (* never cache an instruction that straddles a page: its tail bytes
       live on a page whose invalidation would not reach this entry *)
    if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
    else begin
      arr.(pa land page_mask) <- Some d;
      (* the page holds decoded state again: re-arm write detection *)
      code_bit_set ctx (pa lsr page_shift);
      d
    end

  (* interp's fetch past its front cache, and every fetch without
     predecoding *)
  let fetch_decode_slow ctx va =
    let pa =
      translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va
    in
    if not (Sb_mem.Bus.is_ram ctx.bus pa) then
      bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va
    else if not front_cache then decode_at ctx va
    else begin
      let ppage = pa lsr page_shift in
      let arr =
        match Hashtbl.find ctx.decode_cache ppage with
        | arr -> arr
        | exception Not_found -> new_page ctx ppage
      in
      (* the translation above vouched for (vpn, asid, mode) -> arr with
         execute permission; remember it for subsequent fetches *)
      let vpn = va lsr page_shift in
      let slot = ctx.fetch_front.(vpn land fetch_front_mask) in
      slot.fs_vpn <- vpn;
      slot.fs_asid <- ctx.cpu.Cpu.cop.(Cregs.asid);
      slot.fs_gen <- ctx.fetch_gen;
      slot.fs_mode <- ctx.cpu.Cpu.mode;
      slot.fs_arr <- arr;
      match arr.(pa land page_mask) with
      | Some d when d.Uop.addr = va -> d
      | _ -> decode_into ctx arr ~va ~pa
    end

  (* direct execution's fetch: every fetch translates, and fetches on the
     current page reuse its predecode array *)
  let host_fetch ctx va =
    let pa =
      translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode
        ~iaddr:va
    in
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
          | exception Not_found -> new_page ctx ppage
        in
        ctx.cur_fetch_page <- ppage;
        ctx.cur_fetch_arr <- arr;
        arr
      end
    in
    match Array.unsafe_get arr (pa land page_mask) with
    | Some d when d.Uop.addr = va -> d
    | _ -> decode_into ctx arr ~va ~pa

  (* interp's fetch *)
  let fetch_decode ctx va =
    if not front_cache then fetch_decode_slow ctx va
    else begin
      (* one tag compare skips the TLB probe, the permission check and the
         decode-cache hash lookup for fetches that stay on a recently
         fetched page — the common case for straight-line code and tight
         loops *)
      let vpn = va lsr page_shift in
      let slot = Array.unsafe_get ctx.fetch_front (vpn land fetch_front_mask) in
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

  (* ------------- execution ---------------------------------------------- *)

  let operand ctx = function
    | Uop.Reg r -> ctx.cpu.Cpu.regs.(r)
    | Uop.Imm v -> v land 0xFFFF_FFFF

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
      if detailed then ctx.mem_accesses <- pa :: ctx.mem_accesses;
      cpu.Cpu.regs.(rd) <- read_phys ctx ~iaddr:d.Uop.addr ~va width pa
    | Uop.Store { width; rs; base; offset; user } ->
      Perf.incr ctx.perf Perf.Stores;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let pa = translate ctx ~va ~kind:Sb_mmu.Access.Write ~priv ~iaddr:d.Uop.addr in
      if detailed then ctx.mem_accesses <- pa :: ctx.mem_accesses;
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
        (* Figure 3's operation densities read these from interp *)
        if interp && cpu.Cpu.pc lsr page_shift <> d.Uop.addr lsr page_shift then
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
    | Uop.Undef -> undef ctx ~iaddr:d.Uop.addr
    | Uop.Eret -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } -> (
      match Cop.read cpu ~creg with
      | Ok v ->
        Perf.incr ctx.perf Perf.Cop_reads;
        cpu.Cpu.regs.(rd) <- v
      | Error `Undefined -> undef ctx ~iaddr:d.Uop.addr)
    | Uop.Cop_write { creg; src } -> (
      match Cop.write cpu ~creg ~value:(operand ctx src) with
      | Ok Cop.No_effect -> Perf.incr ctx.perf Perf.Cop_writes
      | Ok Cop.Translation_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        flush_translation ctx
      | Ok Cop.Asid_changed ->
        (* tagged TLBs keep their entries across an address-space switch;
           the detailed model's untagged ones flush, as in simulators
           without ASID support *)
        Perf.incr ctx.perf Perf.Cop_writes;
        if detailed then flush_translation ctx
      | Error `Undefined -> undef ctx ~iaddr:d.Uop.addr)
    | Uop.Tlb_inv_page r ->
      Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
      invalidate_page ctx cpu.Cpu.regs.(r)
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

  (* ------------- the detailed model's pipeline ---------------------------- *)

  let has_mul (d : Uop.decoded) =
    List.exists (function Uop.Alu { op = Uop.Mul; _ } -> true | _ -> false) d.Uop.uops

  (* most recent access first *)
  let rec dcache_latency ctx acc = function
    | [] -> acc
    | pa :: rest ->
      dcache_latency ctx
        (acc
        + if Cache_model.access ctx.dcache pa then cache_hit_latency
          else cache_miss_latency)
        rest

  (* Run the queued stages of the instruction at [pc]; each stage
     schedules the next at its completion time. *)
  let rec drain ctx pc =
    match Event_queue.pop ctx.events with
    | None -> ()
    | Some (t, stage) ->
      (match stage with
      | Fetch ->
        ctx.extra_latency <- 0;
        let pa = itlb_translate ctx ~va:pc ~iaddr:pc in
        if not (Sb_mem.Bus.is_ram ctx.bus pa) then
          bus_fault ~iaddr:pc ~kind:Sb_mmu.Access.Execute ~va:pc;
        let latency =
          fetch_latency + ctx.extra_latency
          + if Cache_model.access ctx.icache pa then cache_hit_latency
            else cache_miss_latency
        in
        Event_queue.schedule ctx.events ~time:(t + latency) Decode
      | Decode ->
        ctx.extra_latency <- 0;
        let d = A.decode ~fetch8:(fetch_byte ctx ~iaddr:pc) ~addr:pc in
        Perf.incr ctx.perf Perf.Decodes;
        Event_queue.schedule ctx.events
          ~time:(t + decode_latency + ctx.extra_latency)
          (Execute d)
      | Execute d ->
        ctx.extra_latency <- 0;
        ctx.mem_accesses <- [];
        exec_insn ctx d;
        let latency =
          (if has_mul d then mul_latency else execute_latency) + ctx.extra_latency
        in
        Event_queue.schedule ctx.events ~time:(t + latency) Memory
      | Memory ->
        Event_queue.schedule ctx.events
          ~time:(t + dcache_latency ctx 0 ctx.mem_accesses)
          Writeback
      | Writeback -> ctx.cycles <- t + 1);
      drain ctx pc

  let step_insn ctx =
    Event_queue.schedule ctx.events ~time:ctx.cycles Fetch;
    drain ctx ctx.cpu.Cpu.pc

  (* ------------- exceptions, device time, the run loop -------------------- *)

  let deliver ctx vector cause far return_addr =
    Perf.incr ctx.perf Perf.Exceptions_total;
    (match vector with
    | Exn.Data_abort -> Perf.incr ctx.perf Perf.Data_abort
    | Exn.Prefetch_abort -> Perf.incr ctx.perf Perf.Prefetch_abort
    | Exn.Undefined -> Perf.incr ctx.perf Perf.Undef_insn
    | Exn.Syscall -> Perf.incr ctx.perf Perf.Svc_taken
    | Exn.Irq -> Perf.incr ctx.perf Perf.Irq_taken
    | Exn.Reset -> ());
    if detailed then ctx.cycles <- ctx.cycles + exception_latency;
    Exn.enter ctx.cpu vector ~return_addr ?far ~cause ()

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
        if Machine.irq_pending ctx.machine then begin
          (* interrupt injection goes through the virtualization layer *)
          vm_exit ctx 5;
          deliver ctx Exn.Irq Exn.Cause.irq None ctx.cpu.Cpu.pc
        end
        else begin
          (try
             if host_tlb then exec_insn ctx (host_fetch ctx ctx.cpu.Cpu.pc)
             else if detailed then step_insn ctx
             else exec_insn ctx (fetch_decode ctx ctx.cpu.Cpu.pc)
           with Guest_fault { vector; cause; far; return_addr } ->
             if detailed then Event_queue.clear ctx.events;
             deliver ctx vector cause far return_addr);
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
      if detailed then Event_queue.clear ctx.events;
      reason

  (* Any run exit flushes the batched ticks: at every run boundary the
     timer count is then an exact function of retired instructions, so a
     snapshot taken between runs (engine switch, debugger step) carries
     complete device time and no ticks are stranded in the context. *)
  let execute ctx ~max_insns =
    let stop = execute ctx ~max_insns in
    flush_timer ctx;
    stop

  (* The last run's translation state (TLBs, decode cache, fetch front,
     cache models) is kept and revalidated against [(machine, state_gen)]:
     a debugger stepping the same machine reuses it instead of re-deriving
     everything per instruction, while any external state change
     (load_program, reset, snapshot restore, Machine.touch) forces a
     rebuild, which recycles the replaced context's tables (see
     [make_ctx]): the session holds the only reference to it, and engines
     are not re-entrant. *)
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

  let cycles_of_last_run = ref 0
  let last_cycles () = !cycles_of_last_run

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
