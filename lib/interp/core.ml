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

let page_shift = Guest.page_shift
let page_size = Guest.page_size
let page_mask = Guest.page_mask

(* Interp, virt and native predecode by physical page, one slot per byte
   offset.  A page's slots are [chunks_per_page] chunks of [chunk_slots]
   (64 bytes of code each): a chunk is allocated by the first decode into
   it, and every chunk not yet filled is [empty_chunk], shared and never
   written, so a page costs host memory only where its code lies. *)
let chunk_bits = 6
let chunk_slots = 1 lsl chunk_bits
let chunk_mask = chunk_slots - 1
let chunks_per_page = page_size lsr chunk_bits

(* An empty slot holds [no_insn], whose address no fetch has, rather than
   an option: a lookup then loads the decoded instruction itself, so the
   chunk costs no more dependent loads than a flat array of options. *)
let no_insn : Uop.decoded = { addr = -1; length = 0; uops = []; terminates_block = false }

type predecode_page = Uop.decoded array array

let empty_chunk : Uop.decoded array = Array.make chunk_slots no_insn

(* the page no fetch has reached: every slot is empty *)
let no_page : predecode_page = Array.make chunks_per_page empty_chunk

(* A page's slot at byte [offset] (below [page_size]): two unchecked
   loads.  It must stay inline on every fetch; ci/check-build-flags.sh
   fails on a call to it. *)
let[@inline] predecode_slot (page : predecode_page) offset =
  Array.unsafe_get (Array.unsafe_get page (offset lsr chunk_bits)) (offset land chunk_mask)

(* Fast interpreter: the unified TLB, and a direct-mapped fetch front
   cache from virtual page to predecode page. *)
let tlb_entries = 256
let fetch_front_bits = 6
let fetch_front_size = 1 lsl fetch_front_bits
let fetch_front_mask = fetch_front_size - 1

(* Direct execution: a flat "hardware" translation cache, one packed slot
   per virtual page of the whole 32-bit space.  Layout:
   [gen | asid:8 | ppn:20 | ap:2 | xn:1 | valid:1] — a tagged hardware TLB,
   so address-space switches need no flush.  The table is a zero mapping
   (see [Sb_mem.Phys_mem.zero_buf]): a slot of 0 is invalid, and host
   memory backs only the pages of slots some run has written. *)
let vpn_space = 1 lsl 20

type host_tlb = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let no_host_tlb : host_tlb = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

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

  (* One slot of interp's fetch front cache.  A hit proves: this virtual
     page translated to the predecode page [fs_page], with execute
     permission, under this ASID and privilege, and no
     translation-affecting event ([fs_gen]) has happened since.
     Self-modifying code needs no tag: SMC invalidation clears the page's
     chunks in place, so stale entries read as empty and fall back to the
     slow path. *)
  type fetch_slot = {
    mutable fs_vpn : int;  (* -1 = empty *)
    mutable fs_asid : int;
    mutable fs_gen : int;
    mutable fs_mode : Sb_mmu.Access.privilege;
    mutable fs_page : predecode_page;
  }

  (* the detailed model's pipeline stages *)
  type stage = Fetch | Decode | Execute of Uop.decoded | Memory | Writeback

  type ctx = {
    g : Guest.t;
    (* the guest's CPU, bus and counters, which the hot paths read here
       with one load *)
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    (* modelled TLBs: interp's unified TLB is both, detailed's are split *)
    itlb : Sb_mmu.Page_cache.t;
    dtlb : Sb_mmu.Page_cache.t;
    host_tlb : host_tlb;
    mutable tlb_gen : int;
    decode_cache : (int, predecode_page) Hashtbl.t;
    fetch_front : fetch_slot array;
    mutable fetch_gen : int;
        (* the front cache's tag: bumped on any event that may change
           va->pa mappings, mirroring the DBT's chain_gen *)
    (* direct execution's current-page fetch: hardware streams fetches
       within a page *)
    mutable cur_fetch_ppage : int;
    mutable cur_fetch_page : predecode_page;
    shadow_regs : int array;
    shadow_cop : int array;
    mutable exit_token : int;
    icache : Cache_model.t;
    dcache : Cache_model.t;
    events : stage Event_queue.t;
    mutable cycles : int;
    mutable mem_accesses : int list;  (* physical addresses touched by the current insn *)
    mutable extra_latency : int;      (* walk latencies accumulated during translation *)
  }

  (* Advance the host TLB to a fresh generation, which invalidates every
     slot at once.  Only a tag that would overflow costs a pass over the
     table. *)
  let next_gen (host_tlb : host_tlb) gen =
    if gen < max_tlb_gen then gen + 1
    else begin
      Bigarray.Array1.fill host_tlb 0;
      1
    end

  (* [prev] is the context this one replaces, which nothing can reach any
     more: its host TLB is taken over at the next generation.  Its
     predecode pages are left to the GC: a new context allocates only the
     chunks its code fills, from the minor heap. *)
  let make_ctx ?prev (g : Guest.t) =
    let cpu = g.cpu in
    if vm_exit_rounds > 0 then Guest.check_register_file ~who:"Core" cpu;
    let host_tlb, tlb_gen =
      match prev with
      | Some prev when host_tlb -> (prev.host_tlb, next_gen prev.host_tlb prev.tlb_gen)
      | _ ->
        ( (if host_tlb then Sb_mem.Phys_mem.zero_buf Bigarray.int 0 vpn_space
           else no_host_tlb),
          1 )
    in
    (* level 1 alone, flushed eagerly *)
    let tlb entries =
      Sb_mmu.Page_cache.create ~l1_entries:entries ~l2_entries:0 ~lazy_flush:false
    in
    let itlb = tlb (if detailed then 32 else tlb_entries) in
    (* only the detailed model reads its caches; the others get one line *)
    let cache size_bytes =
      Cache_model.create ~size_bytes:(if detailed then size_bytes else 32) ~line_bytes:32
    in
    {
      g;
      cpu;
      bus = g.bus;
      perf = g.perf;
      itlb;
      dtlb = (if detailed then tlb 64 else itlb);
      host_tlb;
      tlb_gen;
      decode_cache = Hashtbl.create 64;
      fetch_front =
        (if front_cache then
           Array.init fetch_front_size (fun _ ->
               {
                 fs_vpn = -1;
                 fs_asid = 0;
                 fs_gen = 0;
                 fs_mode = Sb_mmu.Access.Kernel;
                 fs_page = no_page;
               })
         else [||]);
      fetch_gen = 0;
      cur_fetch_ppage = -1;
      cur_fetch_page = no_page;
      shadow_regs = Array.make 16 0;
      shadow_cop = Array.make Cregs.count 0;
      exit_token = 0;
      icache = cache (16 * 1024);
      dcache = cache (32 * 1024);
      events = Event_queue.create ();
      cycles = 0;
      mem_accesses = [];
      extra_latency = 0;
    }

  (* ------------- traps -------------------------------------------------- *)

  (* A trap to the hypervisor, on the engines that model one: [reason] 1 is
     a device read, 2 a device write, 3 an undefined instruction or
     coprocessor access, 4 WFI and 5 IRQ injection. *)
  let world_switch ctx reason =
    Perf.incr ctx.perf Perf.Vm_exits;
    let cpu = ctx.cpu in
    for round = 1 to vm_exit_rounds do
      (* world switch out: save vCPU state *)
      Guest.copy_words cpu.Cpu.regs ctx.shadow_regs 16;
      Guest.copy_words cpu.Cpu.cop ctx.shadow_cop Cregs.count;
      (* emulation-layer dispatch *)
      ctx.exit_token <-
        (ctx.exit_token + ctx.shadow_regs.((reason + round) land 15)
        + ctx.shadow_cop.((reason + round) mod Cregs.count))
        land max_int;
      (* world switch in: restore *)
      Guest.copy_words ctx.shadow_regs cpu.Cpu.regs 16;
      Guest.copy_words ctx.shadow_cop cpu.Cpu.cop Cregs.count
    done

  (* inlined, so the engines that take no exits make no call *)
  let[@inline] vm_exit ctx reason = if vm_exit_rounds > 0 then world_switch ctx reason

  (* ------------- faults ------------------------------------------------- *)

  (* The core's unit is one instruction: a fault retires nothing of it. *)
  let data_fault ~iaddr ~kind ~va fault =
    Guest.data_fault ~iaddr ~retired:0 ~kind ~va fault
  let bus_fault ~iaddr ~kind ~va = Guest.bus_fault ~iaddr ~retired:0 ~kind ~va

  let undef ctx ~iaddr =
    (* undefined instructions trap to the hypervisor before being
       reflected back into the guest *)
    vm_exit ctx 3;
    Guest.undefined ~iaddr ~retired:0

  (* ------------- translation -------------------------------------------- *)

  (* A page-table walk on a translation miss.  Walk latency accrues for
     the detailed pipeline, the only reader of [extra_latency]. *)
  let walk ctx ~va ~kind ~iaddr =
    let m = Guest.walk ctx.g ~va ~kind ~iaddr ~retired:0 in
    ctx.extra_latency <-
      ctx.extra_latency + (m.Sb_mmu.Walker.levels * walk_level_latency);
    m

  let pack ctx (m : Sb_mmu.Walker.mapping) ~asid =
    (ctx.tlb_gen lsl 32)
    lor ((asid land 0xFF) lsl 24)
    lor ((m.Sb_mmu.Walker.pa_page lsr page_shift) lsl 4)
    lor (m.Sb_mmu.Walker.ap lsl 2)
    lor (Bool.to_int m.Sb_mmu.Walker.xn lsl 1)
    lor 1

  (* index mixes the ASID; for a fixed ASID the mapping is injective in the
     vpn, so matching the stored ASID tag is sufficient to validate a hit *)
  let slot_index ~vpn ~asid = (vpn lxor ((asid land 0xFF) * 0x9E37)) land (vpn_space - 1)

  (* A modelled-TLB lookup, with a walk and a fill on a miss.  Inlined at
     each use below, so each technique gets its own tight copy. *)
  let[@inline] tlb_translate ctx tlb ~asid ~va ~kind ~priv ~iaddr =
    let vpn = va lsr page_shift in
    let e =
      match Sb_mmu.Page_cache.lookup_l1 tlb ~vpn ~asid with
      | Some e ->
        Perf.incr ctx.perf Perf.Tlb_hit;
        e
      | None ->
        Perf.incr ctx.perf Perf.Tlb_miss;
        Sb_mmu.Page_cache.fill tlb ~vpn ~asid (walk ctx ~va ~kind ~iaddr)
    in
    if
      Sb_mmu.Access.Ap.permits ~ap:e.Sb_mmu.Page_cache.ap ~xn:e.Sb_mmu.Page_cache.xn
        kind priv
    then (e.Sb_mmu.Page_cache.ppn lsl page_shift) lor (va land page_mask)
    else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission

  let translate ctx ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else if host_tlb then begin
      let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
      let i = slot_index ~vpn:(va lsr page_shift) ~asid in
      let slot = ctx.host_tlb.{i} in
      let slot =
        if
          slot land 1 = 1
          && slot lsr 32 = ctx.tlb_gen
          && (slot lsr 24) land 0xFF = asid land 0xFF
        then slot
        else begin
          (* hardware walk: free of simulator bookkeeping beyond the loads *)
          let slot = pack ctx (walk ctx ~va ~kind ~iaddr) ~asid in
          ctx.host_tlb.{i} <- slot;
          slot
        end
      in
      if
        Sb_mmu.Access.Ap.permits ~ap:((slot lsr 2) land 3) ~xn:(slot land 2 <> 0)
          kind priv
      then (((slot lsr 4) land 0xFFFFF) lsl page_shift) lor (va land page_mask)
      else data_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
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
      Sb_mmu.Page_cache.flush ctx.itlb;
      if detailed then Sb_mmu.Page_cache.flush ctx.dtlb;
      ctx.fetch_gen <- ctx.fetch_gen + 1
    end

  let invalidate_page ctx va =
    let vpn = va lsr page_shift in
    if host_tlb then
      ctx.host_tlb.{slot_index ~vpn ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)} <- 0
    else begin
      let asid = if detailed then 0 else ctx.cpu.Cpu.cop.(Cregs.asid) in
      Sb_mmu.Page_cache.invalidate_page ctx.itlb ~vpn ~asid;
      if detailed then Sb_mmu.Page_cache.invalidate_page ctx.dtlb ~vpn ~asid;
      ctx.fetch_gen <- ctx.fetch_gen + 1
    end

  (* ------------- memory ------------------------------------------------- *)

  (* A store to a page holding predecoded instructions clears the page's
     filled chunks in place: the front cache and the current-page fetch
     read empty slots at once, and a re-decode refills the same chunks, as
     a pre-decoding interpreter would, without allocating. *)
  let smc_invalidate ctx ppage =
    (match Hashtbl.find ctx.decode_cache ppage with
    | page ->
      for i = 0 to chunks_per_page - 1 do
        let chunk = Array.unsafe_get page i in
        if chunk != empty_chunk then Array.fill chunk 0 chunk_slots no_insn
      done
    | exception Not_found -> ());
    Guest.code_invalidated ctx.g ppage

  (* device accesses are trapped and emulated under virtualization *)
  let read_phys ctx ~iaddr ~va width pa =
    if Sb_mem.Bus.is_ram ctx.bus pa then Guest.read_ram ctx.bus width pa
    else begin
      vm_exit ctx 1;
      Guest.read_io ctx.g ~iaddr ~retired:0 ~va width pa
    end

  let write_phys ctx ~iaddr ~va width pa v =
    if Sb_mem.Bus.is_ram ctx.bus pa then begin
      Guest.write_ram ctx.bus width pa v;
      let ppage = pa lsr page_shift in
      if Guest.is_code ctx.g ppage then smc_invalidate ctx ppage
    end
    else begin
      vm_exit ctx 2;
      Guest.write_io ctx.g ~iaddr ~retired:0 ~va width pa v
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

  (* The slot is the chunk of the instruction's first byte; an instruction
     that runs on into the next chunk needs nothing more, since SMC
     invalidation clears a whole page. *)
  let decode_into ctx page ~va ~pa =
    let d = decode_at ctx va in
    (* never cache an instruction that straddles a page: its tail bytes
       live on a page whose invalidation would not reach this entry *)
    if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
    else begin
      let offset = pa land page_mask in
      let i = offset lsr chunk_bits in
      if page.(i) == empty_chunk then page.(i) <- Array.make chunk_slots no_insn;
      page.(i).(offset land chunk_mask) <- d;
      (* the page holds decoded state again: re-arm write detection *)
      Guest.mark_code ctx.g (pa lsr page_shift);
      d
    end

  (* the physical address of an instruction fetch, which must be RAM *)
  let[@inline] fetch_pa ctx va =
    let pa =
      translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va
    in
    if Sb_mem.Bus.is_ram ctx.bus pa then pa
    else bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va

  (* A physical page's predecode page, made on the first fetch from it
     with every chunk empty.  [find] rather than [find_opt]: a loop that
     spans two code pages switches pages every iteration, and a hit must
     not allocate. *)
  let[@inline] predecode_page ctx ppage =
    match Hashtbl.find ctx.decode_cache ppage with
    | page -> page
    | exception Not_found ->
      let page = Array.make chunks_per_page empty_chunk in
      Hashtbl.add ctx.decode_cache ppage page;
      Guest.mark_code ctx.g ppage;
      page

  let[@inline] predecoded ctx page ~va ~pa =
    let d = predecode_slot page (pa land page_mask) in
    if d.Uop.addr = va then d else decode_into ctx page ~va ~pa

  (* interp's fetch past its front cache, and every fetch without
     predecoding *)
  let fetch_decode_slow ctx va =
    let pa = fetch_pa ctx va in
    if not front_cache then decode_at ctx va
    else begin
      let page = predecode_page ctx (pa lsr page_shift) in
      (* the translation above vouched for (vpn, asid, mode) -> page with
         execute permission; remember it for subsequent fetches *)
      let vpn = va lsr page_shift in
      let slot = ctx.fetch_front.(vpn land fetch_front_mask) in
      slot.fs_vpn <- vpn;
      slot.fs_asid <- ctx.cpu.Cpu.cop.(Cregs.asid);
      slot.fs_gen <- ctx.fetch_gen;
      slot.fs_mode <- ctx.cpu.Cpu.mode;
      slot.fs_page <- page;
      predecoded ctx page ~va ~pa
    end

  (* direct execution's fetch: every fetch translates, and fetches on the
     current page reuse its predecode page *)
  let host_fetch ctx va =
    let pa = fetch_pa ctx va in
    let ppage = pa lsr page_shift in
    let page =
      if ctx.cur_fetch_ppage = ppage then ctx.cur_fetch_page
      else begin
        let page = predecode_page ctx ppage in
        ctx.cur_fetch_ppage <- ppage;
        ctx.cur_fetch_page <- page;
        page
      end
    in
    predecoded ctx page ~va ~pa

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
        let d = predecode_slot slot.fs_page (va land page_mask) in
        if d.Uop.addr = va then begin
          Perf.incr ctx.perf Perf.Front_cache_hits;
          d
        end
        else fetch_decode_slow ctx va
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
    | Uop.Svc _ -> Guest.syscall ~return_addr:(d.Uop.addr + d.Uop.length) ~retired:0
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
      Guest.wait_for_interrupt ctx.g ~retired:0)
    | Uop.Halt -> Guest.halt ~retired:0

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

  let deliver ctx vector ~cause ~far ~return_addr =
    if detailed then ctx.cycles <- ctx.cycles + exception_latency;
    Guest.deliver ctx.g vector ~cause ~far ~return_addr

  let cycles_of_last_run = ref 0
  let last_cycles () = !cycles_of_last_run

  let execute ctx ~max_insns =
    let g = ctx.g in
    let machine = g.machine in
    let steps = ref 0 in
    let stop =
      try
        while !steps < max_insns do
          if Sb_mem.Benchdev.sync_pending machine.Machine.benchdev then
            Guest.phase_sync g;
          if Machine.irq_pending machine then begin
            (* interrupt injection goes through the virtualization layer *)
            vm_exit ctx 5;
            deliver ctx Exn.Irq ~cause:Exn.Cause.irq ~far:None ~return_addr:ctx.cpu.Cpu.pc
          end
          else begin
            (try
               if host_tlb then exec_insn ctx (host_fetch ctx ctx.cpu.Cpu.pc)
               else if detailed then step_insn ctx
               else exec_insn ctx (fetch_decode ctx ctx.cpu.Cpu.pc)
             with Guest.Fault { vector; cause; far; return_addr; retired = _ } ->
               if detailed then Event_queue.clear ctx.events;
               deliver ctx vector ~cause ~far ~return_addr);
            incr steps;
            Guest.tick g 1
          end
        done;
        Run_result.Insn_limit
      with Guest.Stop { reason; retired = _ } ->
        if detailed then Event_queue.clear ctx.events;
        reason
    in
    cycles_of_last_run := ctx.cycles;
    stop

  (* The last run's translation state (TLBs, decode cache, fetch front,
     cache models) is kept while the machine is unchanged, and a rebuild
     takes the replaced context's host TLB over (see [make_ctx]). *)
  let session = Guest.session ()
  let run ?max_insns machine =
    Guest.run session ~name ~make:make_ctx ~execute ?max_insns machine
end
