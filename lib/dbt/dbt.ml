open Sb_isa
open Sb_sim

let page_shift = Guest.page_shift
let page_size = Guest.page_size
let page_mask = Guest.page_mask
let u32_mask = 0xFFFF_FFFF

(* direct-mapped block-lookup front cache (QEMU's tb_jmp_cache analog) *)
let jmp_cache_bits = 10
let jmp_cache_size = 1 lsl jmp_cache_bits
let jmp_cache_mask = jmp_cache_size - 1
let jmp_hash va = (va lxor (va lsr jmp_cache_bits)) land jmp_cache_mask

(* Global opt-in hook: when set, every optimiser pass of every block
   translation (across all instantiated engines) is checked.  A ref rather
   than a Config.t knob so that installing a validator does not disturb the
   version-sweep configuration records.  The engine labels each check with
   the release name of its configuration (via Version.name_of) so a sweep
   over many DBT versions produces attributable reports. *)
type versioned_validator =
  version:string option -> pass:string -> before:Ir.t -> after:Ir.t -> unit

let pass_validator : versioned_validator option ref = ref None

module Make_configured
    (A : Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
struct
  let cfg = C.config

  (* release attribution for pass-validator reports; lazy because the
     reverse lookup walks the release table once per engine instance *)
  let version_name = lazy (Version.name_of cfg)

  let block_validator () =
    Option.map
      (fun f -> f ~version:(Lazy.force version_name))
      !pass_validator

  (* trace formation walks direct-chain links, so it needs chaining on and
     room for at least two constituent blocks *)
  let tracing =
    cfg.Config.trace_threshold > 0
    && cfg.Config.max_trace_blocks >= 2
    && cfg.Config.chain_direct

  let name = Printf.sprintf "dbt-%s" A.name

  let features =
    [
      ("Execution Model", "DBT");
      ( "Memory Access",
        if cfg.Config.tlb_l2_entries > 0 then "Multi-level Page Cache"
        else "Single Level Page Cache" );
      ( "Code Generation",
        if cfg.Config.threaded then "Threaded Code" else "Block-based" );
      ( "Control Flow",
        if tracing then "Block Cache + Chaining + Hot Traces"
        else if cfg.Config.chain_direct then "Block Cache + Chaining"
        else "Block Cache" );
      ("Interrupts", "Block Boundaries");
      ("Synchronous Exceptions", "Side Exit");
      ("Undefined Instruction", "Translated");
    ]

  exception Smc_restart of { resume_va : int; retired : int }

  (* Two code representations share the dispatch machinery: the closure
     backend emits one host closure per micro-op; the threaded backend
     lowers the whole unit to a flat token opstream (see threaded.ml /
     docs/threaded.md) selected by [Config.threaded]. *)
  type blk_code =
    | Ops of (unit -> unit) array
    | Prog of Threaded.program * (unit -> unit)
        (* opstream plus its host-bound runner (Threaded.prepare), built
           at translation time so dispatch pays no setup *)

  type block = {
    key : int;
    va : int;
    end_va : int;
    mmu_on : bool;
    code : blk_code;
    insns : int;
    uops_total : int;
    page : int;  (* physical page of the first byte *)
    page2 : int;  (* physical page of the last byte, or -1 *)
    chain_out : bool;
    mutable valid : bool;
    mutable chain_a : (block * int) option;  (* target, chain generation *)
    mutable chain_b : (block * int) option;
    mutable hot : int;
        (* dispatches since this block last became a trace-formation
           candidate; crossing [trace_threshold] triggers stitching *)
    mutable trace : trace option;  (* hot-trace superblock headed here *)
  }

  (* A trace is a superblock: several blocks stitched across direct-branch
     seams into segments executed back-to-back with no chain-verify work
     and no per-block re-dispatch.  [t_gen] and [t_pages] tie it into the
     existing invalidation machinery: a generation bump (translation change,
     TLB maintenance) or an SMC write to any constituent page kills it. *)
  and trace = {
    t_entry : block;
    t_gen : int;  (* chain generation at formation *)
    t_pages : int list;  (* physical pages of every constituent block *)
    t_blocks : block array;
    t_segs : seg array;
    mutable t_valid : bool;
  }

  and seg = {
    s_va : int;
    s_end_va : int;
    s_page : int;
    s_page2 : int;
    s_insns : int;
    s_uops : int;
    s_uncond : bool;
        (* the seam into the next segment is an unconditional direct branch
           whose pc write was elided at emission; the runtime pc check is
           skipped (and pc must be restored if the trace side-exits here) *)
    s_code : blk_code;
  }

  type ctx = {
    g : Guest.t;
    (* the guest's CPU, bus and counters, which the hot paths read here
       with one load *)
    cpu : Cpu.t;
    bus : Sb_mem.Bus.t;
    perf : Perf.t;
    pcache : Sb_mmu.Page_cache.t;
    cache : (int, block) Hashtbl.t;
    jmp_blocks : block option array;
        (* front cache ahead of [cache], indexed by a hash of the virtual
           PC; an entry is live only while its generation matches
           [chain_gen] and the block is still valid, so the same machinery
           that invalidates chains (translation changes, SMC) covers it *)
    jmp_gens : int array;
    by_page : (int, block list ref) Hashtbl.t;
    traces_by_page : (int, trace list ref) Hashtbl.t;
    shadow_regs : int array;
    shadow_cop : int array;
    dtlb_r : Sb_mmu.Mtlb.t;
        (* (va -> host page offset) micro-TLBs backing the threaded
           backend's flat-memory fast paths; filled by the slow paths below,
           shot down with the page cache (TLB maintenance, translation
           changes).  Unused by the closure backend. *)
    dtlb_w : Sb_mmu.Mtlb.t;
    itlb : Sb_mmu.Mtlb.t;
    mutable thost : Threaded.host option;  (* built lazily on first Prog *)
    mutable sync_token : int;
    mutable cur_page : int;
    mutable cur_page2 : int;
    mutable chain_gen : int;
        (* bumped on any event that may change va->pa mappings (TTBR/SCTLR
           writes, TLB maintenance); stale chains are ignored, exactly like
           QEMU flushing its tb_jmp_cache on tlb_flush *)
  }

  let make_ctx ?prev:_ (g : Guest.t) =
    if cfg.Config.exception_sync_work > 0 then
      Guest.check_register_file ~who:"Dbt" g.cpu;
    {
      g;
      cpu = g.cpu;
      bus = g.bus;
      perf = g.perf;
      pcache =
        Sb_mmu.Page_cache.create ~l1_entries:cfg.Config.tlb_entries
          ~l2_entries:cfg.Config.tlb_l2_entries ~lazy_flush:cfg.Config.lazy_tlb_flush;
      cache = Hashtbl.create 1024;
      jmp_blocks = Array.make jmp_cache_size None;
      jmp_gens = Array.make jmp_cache_size (-1);
      by_page = Hashtbl.create 64;
      traces_by_page = Hashtbl.create 16;
      shadow_regs = Array.make 16 0;
      shadow_cop = Array.make Cregs.count 0;
      dtlb_r = Sb_mmu.Mtlb.create ~entries:256;
      dtlb_w = Sb_mmu.Mtlb.create ~entries:256;
      itlb = Sb_mmu.Mtlb.create ~entries:256;
      thost = None;
      sync_token = 0;
      cur_page = -1;
      cur_page2 = -1;
      chain_gen = 0;
    }

  (* ---------------- state sync (exception entry cost model) ------------- *)

  let sync_state ctx =
    for _ = 1 to cfg.Config.exception_sync_work do
      Guest.copy_words ctx.cpu.Cpu.regs ctx.shadow_regs 16;
      Guest.copy_words ctx.cpu.Cpu.cop ctx.shadow_cop Cregs.count;
      ctx.sync_token <- (ctx.sync_token + ctx.shadow_regs.(0) + ctx.shadow_cop.(0)) land max_int
    done

  let chain_verify ctx (blk : block) =
    for _ = 1 to cfg.Config.chain_verify_work do
      ctx.sync_token <-
        (ctx.sync_token + blk.key + Bool.to_int blk.valid) land max_int
    done

  (* ---------------- translation ----------------------------------------- *)

  let[@inline] page_pa (e : Sb_mmu.Page_cache.entry) va =
    (e.Sb_mmu.Page_cache.ppn lsl page_shift) lor (va land page_mask)

  let[@inline] permits (e : Sb_mmu.Page_cache.entry) kind priv =
    Sb_mmu.Access.Ap.permits ~ap:e.Sb_mmu.Page_cache.ap ~xn:e.Sb_mmu.Page_cache.xn kind
      priv

  (* Slow path: L2 probe, then a table walk filling the cache. *)
  let translate_slow ctx ~va ~kind ~priv ~iaddr ~retired =
    let vpn = va lsr page_shift in
    let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
    let entry =
      match Sb_mmu.Page_cache.lookup_l2 ctx.pcache ~vpn ~asid with
      | Some e ->
        Perf.incr ctx.perf Perf.Tlb_hit;
        e
      | None ->
        Perf.incr ctx.perf Perf.Tlb_miss;
        (* page-table-format disambiguation: QEMU-style multi-variant MMU *)
        for step = 1 to cfg.Config.walk_extra_work * 4 do
          ctx.sync_token <-
            (ctx.sync_token + ((va lsr (step land 31)) lxor step)) land max_int
        done;
        Sb_mmu.Page_cache.fill ctx.pcache ~vpn ~asid
          (Guest.walk ctx.g ~va ~kind ~iaddr ~retired)
    in
    if permits entry kind priv then page_pa entry va
    else Guest.data_fault ~iaddr ~retired ~kind ~va Sb_mmu.Access.Permission

  (* The page-cache probe, for every access the MMU translates.  An L1 hit
     that forbids the access faults at once on a fetch; on the data paths
     ([rewalk]) it goes on to the L2 probe and a walk before faulting, as
     QEMU's softmmu re-fills before raising a permission fault. *)
  let[@inline] translate ctx ~va ~kind ~priv ~iaddr ~retired ~rewalk =
    match
      Sb_mmu.Page_cache.lookup_l1 ctx.pcache ~vpn:(va lsr page_shift)
        ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)
    with
    | Some e ->
      if permits e kind priv then begin
        Perf.incr ctx.perf Perf.Tlb_hit;
        page_pa e va
      end
      else if rewalk then translate_slow ctx ~va ~kind ~priv ~iaddr ~retired
      else begin
        Perf.incr ctx.perf Perf.Tlb_hit;
        Guest.data_fault ~iaddr ~retired ~kind ~va Sb_mmu.Access.Permission
      end
    | None -> translate_slow ctx ~va ~kind ~priv ~iaddr ~retired

  (* a fetch's physical address, which must be RAM; faults retire nothing
     of the block being translated or looked up *)
  let fetch_pa ctx ~va ~iaddr =
    let pa =
      if not (Cpu.mmu_enabled ctx.cpu) then va
      else
        translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr
          ~retired:0 ~rewalk:false
    in
    if Sb_mem.Bus.is_ram ctx.bus pa then pa
    else Guest.bus_fault ~iaddr ~retired:0 ~kind:Sb_mmu.Access.Execute ~va

  (* the privilege a load or store is checked at: user for LDRT/STRT *)
  let[@inline] data_priv ctx ~user = if user then Sb_mmu.Access.User else ctx.cpu.Cpu.mode

  (* a load's or store's physical address, under an MMU that is on *)
  let[@inline] data_pa ctx ~kind ~user ~va ~iva ~iidx =
    translate ctx ~va ~kind ~priv:(data_priv ctx ~user) ~iaddr:iva ~retired:iidx
      ~rewalk:true

  (* ---------------- block invalidation ---------------------------------- *)

  let invalidate_trace ctx (tr : trace) =
    if tr.t_valid then begin
      tr.t_valid <- false;
      Perf.incr ctx.perf Perf.Trace_invalidations;
      (* detach from the entry block (unless a newer trace replaced this
         one) and let every constituent re-profile from scratch *)
      (match tr.t_entry.trace with
      | Some cur when cur == tr -> tr.t_entry.trace <- None
      | _ -> ());
      Array.iter (fun b -> b.hot <- 0) tr.t_blocks
    end

  let invalidate_page ctx ppage =
    (match Hashtbl.find_opt ctx.by_page ppage with
    | Some blocks ->
      List.iter
        (fun blk ->
          blk.valid <- false;
          blk.chain_a <- None;
          blk.chain_b <- None;
          Hashtbl.remove ctx.cache blk.key)
        !blocks;
      Hashtbl.remove ctx.by_page ppage
    | None -> ());
    (match Hashtbl.find_opt ctx.traces_by_page ppage with
    | Some traces ->
      List.iter (invalidate_trace ctx) !traces;
      Hashtbl.remove ctx.traces_by_page ppage
    | None -> ());
    Guest.code_invalidated ctx.g ppage

  (* A store wrote code page [ppage]: drop its translations, and if it
     clobbered the running unit's own pages, stop executing its stale tail
     and restart dispatch after this store. *)
  let smc_write ctx ~ppage ~resume_va ~retired =
    invalidate_page ctx ppage;
    if ppage = ctx.cur_page || ppage = ctx.cur_page2 then
      raise (Smc_restart { resume_va; retired = retired + 1 })

  (* ---------------- the memory path and translation maintenance -------- *)

  let[@inline] write_phys ctx ~iaddr ~retired ~resume_va ~va width pa v =
    if Guest.write_phys ctx.g ~iaddr ~retired ~va width pa v then
      smc_write ctx ~ppage:(pa lsr page_shift) ~resume_va ~retired

  (* A translation change or a full TLB flush: the page cache, every chain
     (by the generation) and the threaded backend's micro-TLBs forget every
     mapping, exactly like QEMU flushing its tb_jmp_cache on tlb_flush. *)
  let flush_translations ctx =
    Sb_mmu.Page_cache.flush ctx.pcache;
    ctx.chain_gen <- ctx.chain_gen + 1;
    Sb_mmu.Mtlb.flush ctx.dtlb_r;
    Sb_mmu.Mtlb.flush ctx.dtlb_w;
    Sb_mmu.Mtlb.flush ctx.itlb

  let[@inline] cop_write ctx ~creg ~value ~iva ~iidx =
    Perf.incr ctx.perf Perf.Cop_writes;
    match Cop.write ctx.cpu ~creg ~value with
    | Ok (Cop.No_effect | Cop.Asid_changed) ->
      (* the page cache and the micro-TLBs are ASID-tagged: entries of
         other address spaces persist, and chains stay valid because
         blocks are keyed physically *)
      ()
    | Ok Cop.Translation_changed -> flush_translations ctx
    | Error `Undefined -> Guest.undefined ~iaddr:iva ~retired:iidx

  let[@inline] tlb_inv_page ctx ~va =
    Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
    let vpn = va lsr page_shift in
    Sb_mmu.Page_cache.invalidate_page ctx.pcache ~vpn
      ~asid:ctx.cpu.Cpu.cop.(Cregs.asid);
    ctx.chain_gen <- ctx.chain_gen + 1;
    Sb_mmu.Mtlb.invalidate_page ctx.dtlb_r ~vpn;
    Sb_mmu.Mtlb.invalidate_page ctx.dtlb_w ~vpn;
    Sb_mmu.Mtlb.invalidate_page ctx.itlb ~vpn

  let[@inline] tlb_inv_all ctx =
    Perf.incr ctx.perf Perf.Tlb_flush_ops;
    flush_translations ctx

  (* ---------------- emission ------------------------------------------ *)

  let rec wrap_layers n f = if n <= 0 then f else wrap_layers (n - 1) (fun () -> f ())

  let undef_fault ~iva ~iidx () = Guest.undefined ~iaddr:iva ~retired:iidx

  let reader regs = function
    | Uop.Reg r -> fun () -> regs.(r)
    | Uop.Imm v ->
      let v = v land u32_mask in
      fun () -> v

  let emit_alu ctx ~set_flags ~op ~rd ~rn ~rm =
    let cpu = ctx.cpu in
    let regs = cpu.Cpu.regs in
    if set_flags then begin
      let read_rn = reader regs rn and read_rm = reader regs rm in
      match rd with
      | Some rd ->
        fun () -> regs.(rd) <- Alu_eval.eval_set_flags cpu op (read_rn ()) (read_rm ())
      | None ->
        fun () -> ignore (Alu_eval.eval_set_flags cpu op (read_rn ()) (read_rm ()) : int)
    end
    else
      match rd with
      | None -> fun () -> ()
      | Some rd -> (
        (* specialised forms: this is where translated code beats the
           interpreter's fully-generic dispatch *)
        match (op, rn, rm) with
        | Uop.Orr, Uop.Imm 0, Uop.Imm v | Uop.Orr, Uop.Imm v, Uop.Imm 0 ->
          let v = v land u32_mask in
          fun () -> regs.(rd) <- v
        | Uop.Orr, Uop.Reg r, Uop.Imm 0 -> fun () -> regs.(rd) <- regs.(r)
        | Uop.Add, Uop.Reg r, Uop.Imm v ->
          fun () -> regs.(rd) <- (regs.(r) + v) land u32_mask
        | Uop.Sub, Uop.Reg r, Uop.Imm v ->
          fun () -> regs.(rd) <- (regs.(r) - v) land u32_mask
        | Uop.Add, Uop.Reg a, Uop.Reg b ->
          fun () -> regs.(rd) <- (regs.(a) + regs.(b)) land u32_mask
        | Uop.Sub, Uop.Reg a, Uop.Reg b ->
          fun () -> regs.(rd) <- (regs.(a) - regs.(b)) land u32_mask
        | Uop.And_, Uop.Reg a, Uop.Reg b -> fun () -> regs.(rd) <- regs.(a) land regs.(b)
        | Uop.And_, Uop.Reg a, Uop.Imm v -> fun () -> regs.(rd) <- regs.(a) land v
        | Uop.Orr, Uop.Reg a, Uop.Reg b -> fun () -> regs.(rd) <- regs.(a) lor regs.(b)
        | Uop.Orr, Uop.Reg a, Uop.Imm v ->
          let v = v land u32_mask in
          fun () -> regs.(rd) <- regs.(a) lor v
        | Uop.Xor, Uop.Reg a, Uop.Reg b -> fun () -> regs.(rd) <- regs.(a) lxor regs.(b)
        | Uop.Xor, Uop.Reg a, Uop.Imm v ->
          let v = v land u32_mask in
          fun () -> regs.(rd) <- regs.(a) lxor v
        | Uop.Mul, Uop.Reg a, Uop.Reg b ->
          fun () -> regs.(rd) <- (regs.(a) * regs.(b)) land u32_mask
        | Uop.Mul, Uop.Reg a, Uop.Imm v ->
          let v = v land u32_mask in
          fun () -> regs.(rd) <- (regs.(a) * v) land u32_mask
        | Uop.Lsl, Uop.Reg a, Uop.Imm v ->
          let v = v land 0xFF in
          if v >= 32 then fun () -> regs.(rd) <- 0
          else fun () -> regs.(rd) <- (regs.(a) lsl v) land u32_mask
        | Uop.Lsr, Uop.Reg a, Uop.Imm v ->
          let v = v land 0xFF in
          if v >= 32 then fun () -> regs.(rd) <- 0
          else fun () -> regs.(rd) <- regs.(a) lsr v
        | Uop.Asr, Uop.Reg a, Uop.Imm v ->
          let v = min 31 (v land 0xFF) in
          fun () -> regs.(rd) <- Sb_util.U32.of_int (Sb_util.U32.to_signed regs.(a) asr v)
        | Uop.Lsl, Uop.Reg a, Uop.Reg b ->
          fun () -> regs.(rd) <- Sb_util.U32.shift_left regs.(a) (regs.(b) land 0xFF)
        | Uop.Lsr, Uop.Reg a, Uop.Reg b ->
          fun () -> regs.(rd) <- Sb_util.U32.shift_right_logical regs.(a) (regs.(b) land 0xFF)
        | _ ->
          let read_rn = reader regs rn and read_rm = reader regs rm in
          fun () -> regs.(rd) <- Alu_eval.eval op (read_rn ()) (read_rm ()))

  (* a load's or store's counters, and its virtual address *)
  let[@inline] access_va perf counter ~user read_base offset =
    Perf.incr perf counter;
    if user then Perf.incr perf Perf.User_accesses;
    (read_base () + offset) land u32_mask

  let emit_load ctx ~mmu_on ~iva ~iidx ~width ~rd ~base ~offset ~user =
    let regs = ctx.cpu.Cpu.regs in
    let perf = ctx.perf in
    let read_base = reader regs base in
    let body =
      if not mmu_on then (fun () ->
        let va = access_va perf Perf.Loads ~user read_base offset in
        regs.(rd) <- Guest.read_phys ctx.g ~iaddr:iva ~retired:iidx ~va width va)
      else fun () ->
        let va = access_va perf Perf.Loads ~user read_base offset in
        let pa = data_pa ctx ~kind:Sb_mmu.Access.Read ~user ~va ~iva ~iidx in
        regs.(rd) <- Guest.read_phys ctx.g ~iaddr:iva ~retired:iidx ~va width pa
    in
    wrap_layers cfg.Config.mem_helper_layers body

  let emit_store ctx ~mmu_on ~iva ~ilen ~iidx ~width ~rs ~base ~offset ~user =
    let regs = ctx.cpu.Cpu.regs in
    let perf = ctx.perf in
    let resume_va = iva + ilen in
    let read_base = reader regs base in
    let body =
      if not mmu_on then (fun () ->
        let va = access_va perf Perf.Stores ~user read_base offset in
        write_phys ctx ~iaddr:iva ~retired:iidx ~resume_va ~va width va regs.(rs))
      else fun () ->
        let va = access_va perf Perf.Stores ~user read_base offset in
        let pa = data_pa ctx ~kind:Sb_mmu.Access.Write ~user ~va ~iva ~iidx in
        write_phys ctx ~iaddr:iva ~retired:iidx ~resume_va ~va width pa regs.(rs)
    in
    wrap_layers cfg.Config.mem_helper_layers body

  (* [elide]: a trace seam into the next segment, where an unconditional
     direct branch keeps its architectural effects (counters, link write)
     and drops the pc write the stitching makes redundant *)
  let emit_branch ctx ~iva ~ilen ~elide ~cond ~target ~link =
    let cpu = ctx.cpu in
    let regs = cpu.Cpu.regs in
    let perf = ctx.perf in
    let ret = (iva + ilen) land u32_mask in
    let do_link =
      match link with
      | Some l -> fun () -> regs.(l) <- ret
      | None -> fun () -> ()
    in
    let counter =
      match target with
      | Uop.Direct _ -> Perf.Branch_direct
      | Uop.Indirect _ -> Perf.Branch_indirect
    in
    let set_pc =
      match target with
      | Uop.Direct t -> fun () -> cpu.Cpu.pc <- t
      | Uop.Indirect r -> fun () -> cpu.Cpu.pc <- regs.(r)
    in
    match (cond, target) with
    | Uop.Always, Uop.Direct _ when elide -> (
      match link with
      | Some l ->
        fun () ->
          Perf.incr perf Perf.Branch_direct;
          Perf.incr perf Perf.Branch_taken;
          regs.(l) <- ret
      | None ->
        fun () ->
          Perf.incr perf Perf.Branch_direct;
          Perf.incr perf Perf.Branch_taken)
    | Uop.Always, _ ->
      fun () ->
        Perf.incr perf counter;
        Perf.incr perf Perf.Branch_taken;
        do_link ();
        set_pc ()
    | _ ->
      let test =
        match cond with
        | Uop.Always -> fun () -> true
        | Uop.Eq -> fun () -> cpu.Cpu.flag_z
        | Uop.Ne -> fun () -> not cpu.Cpu.flag_z
        | Uop.Lt -> fun () -> cpu.Cpu.flag_n <> cpu.Cpu.flag_v
        | Uop.Ge -> fun () -> cpu.Cpu.flag_n = cpu.Cpu.flag_v
        | Uop.Ltu -> fun () -> not cpu.Cpu.flag_c
        | Uop.Geu -> fun () -> cpu.Cpu.flag_c
      in
      fun () ->
        Perf.incr perf counter;
        if test () then begin
          Perf.incr perf Perf.Branch_taken;
          do_link ();
          set_pc ()
        end

  let emit_uop ctx ~mmu_on ~iva ~ilen ~iidx ~elide uop =
    let cpu = ctx.cpu in
    let regs = cpu.Cpu.regs in
    let perf = ctx.perf in
    match uop with
    | Uop.Nop -> fun () -> ()
    | Uop.Alu { op; rd; rn; rm; set_flags } -> emit_alu ctx ~set_flags ~op ~rd ~rn ~rm
    | Uop.Load { width; rd; base; offset; user } ->
      emit_load ctx ~mmu_on ~iva ~iidx ~width ~rd ~base ~offset ~user
    | Uop.Store { width; rs; base; offset; user } ->
      emit_store ctx ~mmu_on ~iva ~ilen ~iidx ~width ~rs ~base ~offset ~user
    | Uop.Branch { cond; target; link } ->
      emit_branch ctx ~iva ~ilen ~elide ~cond ~target ~link
    | Uop.Svc _ ->
      let return_addr = (iva + ilen) land u32_mask in
      fun () -> Guest.syscall ~return_addr ~retired:iidx
    | Uop.Undef -> undef_fault ~iva ~iidx
    | Uop.Eret -> fun () -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } ->
      if creg < 0 || creg >= Cregs.count then undef_fault ~iva ~iidx
      else fun () ->
        Perf.incr perf Perf.Cop_reads;
        regs.(rd) <- cpu.Cpu.cop.(creg)
    | Uop.Cop_write { creg; src } -> (
      if creg < 0 || creg >= Cregs.count then undef_fault ~iva ~iidx
      else
        let read_src = reader regs src in
        fun () -> cop_write ctx ~creg ~value:(read_src ()) ~iva ~iidx)
    | Uop.Tlb_inv_page r -> fun () -> tlb_inv_page ctx ~va:regs.(r)
    | Uop.Tlb_inv_all -> fun () -> tlb_inv_all ctx
    | Uop.Wfi -> fun () -> Guest.wait_for_interrupt ctx.g ~retired:iidx
    | Uop.Halt -> fun () -> Guest.halt ~retired:iidx

  (* ---------------- threaded-backend host ------------------------------ *)

  let priv_code = function Sb_mmu.Access.Kernel -> 1 | Sb_mmu.Access.User -> 0

  (* Fill a micro-TLB entry after a successful walk + permission check,
     provided the whole guest page is backed by flat RAM (RAM occupies
     [0, ram_size), so host offset = physical address).  [priv] is the
     privilege the permission check actually used; it tags the entry, so a
     mode change can never satisfy a probe the check didn't cover. *)
  let mtlb_fill ctx mtlb ~va ~pa ~priv =
    let page_base = pa land lnot page_mask in
    if page_base + page_size <= Sb_mem.Bus.ram_size ctx.bus then
      Sb_mmu.Mtlb.fill mtlb ~vpn:(va lsr page_shift)
        ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)
        ~priv:(priv_code priv) ~base:page_base

  (* The callbacks behind the threaded opstream: the closure backend's
     slow paths, re-entered from opstream tokens.  Loads and stores land
     here on a micro-TLB miss (or MMIO, page-crossing or user-mode access)
     and refill the micro-TLB on a successful RAM translation. *)
  let make_host ctx =
    let h_load_slow ~mmu ~width ~user ~va ~iva ~iidx =
      let pa =
        if not mmu then va
        else begin
          let pa = data_pa ctx ~kind:Sb_mmu.Access.Read ~user ~va ~iva ~iidx in
          mtlb_fill ctx ctx.dtlb_r ~va ~pa ~priv:(data_priv ctx ~user);
          pa
        end
      in
      Guest.read_phys ctx.g ~iaddr:iva ~retired:iidx ~va width pa
    in
    let h_store_slow ~mmu ~width ~user ~va ~v ~iva ~resume_va ~iidx =
      let pa =
        if not mmu then va
        else begin
          let pa = data_pa ctx ~kind:Sb_mmu.Access.Write ~user ~va ~iva ~iidx in
          mtlb_fill ctx ctx.dtlb_w ~va ~pa ~priv:(data_priv ctx ~user);
          pa
        end
      in
      write_phys ctx ~iaddr:iva ~retired:iidx ~resume_va ~va width pa v
    in
    {
      Threaded.h_cpu = ctx.cpu;
      h_perf = ctx.perf;
      h_ram = Sb_mem.Bus.ram ctx.bus;
      h_ram_limit = Sb_mem.Bus.ram_size ctx.bus;
      h_code_pages = ctx.g.code_pages;
      h_dtlb_r = ctx.dtlb_r;
      h_dtlb_w = ctx.dtlb_w;
      h_load_slow;
      h_store_slow;
      h_store_smc =
        (fun ~ppage ~resume_va ~iidx -> smc_write ctx ~ppage ~resume_va ~retired:iidx);
      h_cop_write =
        (fun ~creg ~value ~iva ~iidx -> cop_write ctx ~creg ~value ~iva ~iidx);
      h_tlb_inv_page = (fun ~va -> tlb_inv_page ctx ~va);
      h_tlb_inv_all = (fun () -> tlb_inv_all ctx);
      h_wfi = (fun ~iidx -> Guest.wait_for_interrupt ctx.g ~retired:iidx);
    }

  let host_of ctx =
    match ctx.thost with
    | Some h -> h
    | None ->
      let h = make_host ctx in
      ctx.thost <- Some h;
      h

  let exec_code = function
    | Ops ops ->
      for i = 0 to Array.length ops - 1 do
        (Array.unsafe_get ops i) ()
      done
    | Prog (_, run) -> run ()

  (* ---------------- translation --------------------------------------- *)

  let trans_fetch8 ctx ~iaddr a =
    let fast =
      (* threaded backend: code fetch probes its own micro-TLB before the
         page cache, mirroring the data-side fast path *)
      if cfg.Config.threaded && Cpu.mmu_enabled ctx.cpu then
        Sb_mmu.Mtlb.probe ctx.itlb ~vpn:(a lsr page_shift)
          ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)
          ~priv:(priv_code ctx.cpu.Cpu.mode)
      else -1
    in
    if fast >= 0 then begin
      Perf.incr ctx.perf Perf.Tlb_fast_hits;
      Sb_mem.Phys_mem.unsafe_read8 (Sb_mem.Bus.ram ctx.bus)
        (fast lor (a land page_mask))
    end
    else
      let pa = fetch_pa ctx ~va:a ~iaddr in
      if cfg.Config.threaded && Cpu.mmu_enabled ctx.cpu then
        mtlb_fill ctx ctx.itlb ~va:a ~pa ~priv:ctx.cpu.Cpu.mode;
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa

  let ends_in_direct_or_fallthrough (decodeds : Uop.decoded list) =
    (* decodeds is in reverse order (head = last decoded) *)
    match decodeds with
    | [] -> false
    | last :: _ -> (
      match List.rev last.Uop.uops with
      | Uop.Branch { target = Uop.Direct _; _ } :: _ -> true
      | Uop.Branch { target = Uop.Indirect _; _ } :: _ -> false
      | (Uop.Svc _ | Uop.Undef | Uop.Eret | Uop.Wfi | Uop.Halt) :: _ -> false
      | _ -> true (* length cap, page end, or translation-affecting op *))

  (* decode one block's worth of instructions starting at [va]; result is in
     reverse order (head = last decoded).  Shared between block translation
     and trace stitching, which re-decodes constituent blocks. *)
  let decode_block_rev ctx va =
    let start_page_va = va lsr page_shift in
    let rec decode_loop acc cur count =
      if count >= cfg.Config.max_block_insns then acc
      else if count > 0 && cur lsr page_shift <> start_page_va then acc
      else begin
        let d = A.decode ~fetch8:(trans_fetch8 ctx ~iaddr:cur) ~addr:cur in
        Perf.incr ctx.perf Perf.Decodes;
        let acc = d :: acc in
        if d.Uop.terminates_block then acc
        else decode_loop acc (cur + d.Uop.length) (count + 1)
      end
    in
    decode_loop [] va 0

  (* Emit one translation unit (a block, or one segment of a trace) from
     its optimised IR, returning its code and its micro-op count.  Both
     backends pay the same per-uop host-emission cost (select, encode and
     write the "code bytes" of each micro-op); the threaded backend's win
     is on the execution side.  [slots] are a trace's shared register-cache
     slots; [elide_uncond] drops the pc write of the unit's trailing
     unconditional direct branch (a trace seam into the next segment). *)
  let emit_unit ctx ~mmu_on ?slots ~elide_uncond (ir : Ir.insn array) =
    let uops = ref 0 in
    Array.iter
      (fun (insn : Ir.insn) ->
        List.iter
          (fun _uop ->
            incr uops;
            for unit = 1 to cfg.Config.emission_work do
              ctx.sync_token <-
                (ctx.sync_token + (insn.Ir.va lxor (unit * 0x9E37))) land max_int
            done)
          insn.Ir.uops)
      ir;
    let code =
      if cfg.Config.threaded then begin
        let p =
          Threaded.compile ?slots ~elide_uncond_seam:elide_uncond
            ~reg_cache:cfg.Config.reg_cache ~mmu:mmu_on ir
        in
        Perf.add ctx.perf Perf.Opstream_bytes (8 * Array.length p.Threaded.code);
        Prog (p, Threaded.prepare (host_of ctx) p)
      end
      else begin
        let last = Array.length ir - 1 in
        let ops = ref [] in
        Array.iteri
          (fun iidx (insn : Ir.insn) ->
            List.iter
              (fun uop ->
                ops :=
                  emit_uop ctx ~mmu_on ~iva:insn.Ir.va ~ilen:insn.Ir.len ~iidx
                    ~elide:(elide_uncond && iidx = last) uop
                  :: !ops)
              insn.Ir.uops)
          ir;
        Ops (Array.of_list (List.rev !ops))
      end
    in
    (code, !uops)

  let translate_block ctx va =
    Perf.incr ctx.perf Perf.Blocks_translated;
    (* fixed per-block cost: TB allocation, prologue/epilogue emission,
       direct-jump stub patching *)
    for unit = 1 to cfg.Config.emission_work * 6 do
      ctx.sync_token <- (ctx.sync_token + (va lxor (unit * 0x5851))) land max_int
    done;
    let mmu_on = Cpu.mmu_enabled ctx.cpu in
    let rev_decodeds = decode_block_rev ctx va in
    let chain_out = ends_in_direct_or_fallthrough rev_decodeds in
    let decodeds = List.rev rev_decodeds in
    let ir = Ir.of_decoded decodeds in
    let passes_run =
      Ir.run ?validate:(block_validator ()) ~passes:cfg.Config.opt_passes ir
    in
    Perf.add ctx.perf Perf.Opt_passes_run passes_run;
    let end_va =
      match rev_decodeds with
      | last :: _ -> (last.Uop.addr + last.Uop.length) land u32_mask
      | [] -> va
    in
    let code, uops_total = emit_unit ctx ~mmu_on ~elide_uncond:false ir in
    (* physical placement for invalidation *)
    let start_pa = fetch_pa ctx ~va ~iaddr:va in
    let last_byte_va = end_va - 1 in
    let end_pa =
      if last_byte_va lsr page_shift = va lsr page_shift then
        (start_pa land lnot page_mask) lor (last_byte_va land page_mask)
      else fetch_pa ctx ~va:last_byte_va ~iaddr:va
    in
    let page = start_pa lsr page_shift in
    let page2 =
      let p2 = end_pa lsr page_shift in
      if p2 = page then -1 else p2
    in
    let key = (start_pa lsl 1) lor Bool.to_int mmu_on in
    let blk =
      {
        key;
        va;
        end_va;
        mmu_on;
        code;
        insns = Array.length ir;
        uops_total;
        page;
        page2;
        chain_out;
        valid = true;
        chain_a = None;
        chain_b = None;
        hot = 0;
        trace = None;
      }
    in
    (* both pages are RAM: every byte of the block was fetched *)
    let register ppage =
      (match Hashtbl.find_opt ctx.by_page ppage with
      | Some blocks -> blocks := blk :: !blocks
      | None -> Hashtbl.add ctx.by_page ppage (ref [ blk ]));
      Guest.mark_code ctx.g ppage
    in
    register page;
    if page2 >= 0 then register page2;
    Hashtbl.replace ctx.cache key blk;
    blk

  let lookup_translate_slow ctx va mmu_on =
    let pa = fetch_pa ctx ~va ~iaddr:va in
    let key = (pa lsl 1) lor Bool.to_int mmu_on in
    match Hashtbl.find_opt ctx.cache key with
    | Some blk when blk.valid && blk.va = va -> blk
    | Some _ ->
      Hashtbl.remove ctx.cache key;
      translate_block ctx va
    | None -> translate_block ctx va

  (* Fast path: one array probe on the virtual PC skips both the address
     translation and the block-hash lookup.  Tag rules mirror
     [chain_candidate]: same generation, still valid, same VA and
     translation regime. *)
  let lookup_translate ctx va =
    Perf.incr ctx.perf Perf.Block_lookups;
    let mmu_on = Cpu.mmu_enabled ctx.cpu in
    if not cfg.Config.front_cache then lookup_translate_slow ctx va mmu_on
    else begin
      let h = jmp_hash va in
      match Array.unsafe_get ctx.jmp_blocks h with
      | Some b
        when Array.unsafe_get ctx.jmp_gens h = ctx.chain_gen
             && b.valid && b.va = va && b.mmu_on = mmu_on ->
        Perf.incr ctx.perf Perf.Front_cache_hits;
        b
      | _ ->
        let b = lookup_translate_slow ctx va mmu_on in
        Array.unsafe_set ctx.jmp_blocks h (Some b);
        Array.unsafe_set ctx.jmp_gens h ctx.chain_gen;
        b
    end

  (* ---------------- dispatch loop -------------------------------------- *)

  (* Stands for "no block" where an option would allocate on the dispatch
     path: the previous block after an exception or interrupt, and a chain
     probe that missed.  It is never valid, never chained from and never
     dispatched. *)
  let no_block =
    {
      key = -1;
      va = -1;
      end_va = -1;
      mmu_on = false;
      code = Ops [||];
      insns = 0;
      uops_total = 0;
      page = -1;
      page2 = -1;
      chain_out = false;
      valid = false;
      chain_a = None;
      chain_b = None;
      hot = 0;
      trace = None;
    }

  let chained ctx link pc mmu_on =
    match link with
    | Some (b, gen)
      when gen = ctx.chain_gen && b.valid && b.va = pc && b.mmu_on = mmu_on ->
      b
    | _ -> no_block

  (* The chained successor of [lb] for [pc], or [no_block]. *)
  let chain_candidate ctx (lb : block) pc mmu_on =
    let b = chained ctx lb.chain_a pc mmu_on in
    if b != no_block then b else chained ctx lb.chain_b pc mmu_on

  let chain_install ctx (lb : block) (b : block) =
    let same_page = lb.va lsr page_shift = b.va lsr page_shift in
    if lb.chain_out && (same_page || cfg.Config.chain_across_pages) then begin
      lb.chain_b <- lb.chain_a;
      lb.chain_a <- Some (b, ctx.chain_gen)
    end

  (* ---------------- hot-trace superblocks ------------------------------- *)

  (* How the final instruction of a constituent block hands over to the next
     stitched segment; decides seam compilation and whether stitching may
     continue at all. *)
  type seam =
    | Seam_uncond of int  (* unconditional direct branch to this target *)
    | Seam_cond of int  (* conditional direct: taken target (fallthrough is end_va) *)
    | Seam_fallthrough  (* block ended on the length cap or the page edge *)
    | Seam_stop
        (* indirect branch, exception-raising op, or a translation-affecting
           op (Cop_write / TLB invalidation): never stitch through these — a
           mid-trace generation bump would invalidate the very trace that is
           running *)

  let seam_of (rev_decodeds : Uop.decoded list) =
    match rev_decodeds with
    | [] -> Seam_stop
    | last :: _ ->
      let affects_translation = function
        | Uop.Cop_write _ | Uop.Tlb_inv_page _ | Uop.Tlb_inv_all -> true
        | _ -> false
      in
      if List.exists affects_translation last.Uop.uops then Seam_stop
      else (
        match List.rev last.Uop.uops with
        | Uop.Branch { cond = Uop.Always; target = Uop.Direct t; _ } :: _ ->
          Seam_uncond t
        | Uop.Branch { target = Uop.Direct t; _ } :: _ -> Seam_cond t
        | Uop.Branch _ :: _
        | (Uop.Svc _ | Uop.Undef | Uop.Eret | Uop.Wfi | Uop.Halt) :: _ -> Seam_stop
        | _ -> Seam_fallthrough)

  (* The block a trace from [b0] continues with after [b], or [no_block]:
     the [chain_a] link, under exactly the rules dispatch itself uses
     (current generation, still valid, same translation regime; cross-page
     links only exist if the configuration allowed installing them). *)
  let trace_successor ctx (b0 : block) (b : block) =
    match b.chain_a with
    | Some (nxt, gen)
      when gen = ctx.chain_gen && nxt.valid && nxt.mmu_on = b0.mmu_on ->
      nxt
    | _ -> no_block

  (* The predicted path out of [b0].  Stops at loops back into the
     trace. *)
  let collect_trace_blocks ctx (b0 : block) =
    let rec go acc b n =
      if n >= cfg.Config.max_trace_blocks then List.rev acc
      else
        let nxt = trace_successor ctx b0 b in
        if nxt != no_block && not (List.memq nxt acc) then
          go (nxt :: acc) nxt (n + 1)
        else List.rev acc
    in
    go [ b0 ] b0 1

  (* Stitch [b0] and its chain successors into one superblock: re-decode the
     constituents, run the optimiser pipeline across the concatenated IR
     (constants and peephole identities now flow through direct-branch
     seams), and emit one closure array per segment.  Unconditional seam
     branches lose their pc write — the branch counters stay, so the
     architectural branch counts are identical to block-by-block execution;
     conditional seams keep the full branch and the runtime compares pc
     against the next segment's entry, side-exiting on mismatch. *)
  let stitch_trace ctx (b0 : block) =
    match
      let blocks = collect_trace_blocks ctx b0 in
      (* decode and classify; keep the longest stitchable prefix *)
      let rec take acc = function
        | [] -> List.rev acc
        | (b : block) :: rest ->
          let rev = decode_block_rev ctx b.va in
          if List.length rev <> b.insns then List.rev acc
          else
            let seam = seam_of rev in
            let entry = (b, List.rev rev, seam) in
            let continues =
              match rest with
              | [] -> false
              | nxt :: _ -> (
                match seam with
                | Seam_uncond t -> nxt.va = t
                | Seam_cond t -> nxt.va = t || nxt.va = b.end_va
                | Seam_fallthrough -> nxt.va = b.end_va
                | Seam_stop -> false)
            in
            if continues then take (entry :: acc) rest else List.rev (entry :: acc)
      in
      (match blocks with
      | [] | [ _ ] -> None
      | _ -> (
        match take [] blocks with
        | [] | [ _ ] -> None
        | parts -> Some parts))
    with
    | exception Guest.Fault _ ->
      (* re-decode faulted (racing translation change); just don't form *)
      None
    | None -> None
    | Some parts ->
      Perf.incr ctx.perf Perf.Traces_formed;
      (* fixed stitching cost: trace buffer allocation, entry stub, seam
         patching — same order as a block prologue *)
      for unit = 1 to cfg.Config.emission_work * 6 do
        ctx.sync_token <- (ctx.sync_token + (b0.va lxor (unit * 0x2545))) land max_int
      done;
      let ir = Ir.of_decoded (List.concat_map (fun (_, ds, _) -> ds) parts) in
      let passes_run =
        Ir.run ?validate:(block_validator ()) ~passes:cfg.Config.opt_passes ir
      in
      Perf.add ctx.perf Perf.Opt_passes_run passes_run;
      (* slice the optimised IR back into per-block segments: passes never
         change instruction counts, so slice boundaries are exact and
         per-segment retirement stays truthful *)
      let n_parts = List.length parts in
      (* trace-scope register allocation: the slot pair is chosen once over
         the whole stitched IR and shared by every segment, so the cached
         registers survive the seams and spill only at segment boundaries *)
      let slots =
        if cfg.Config.threaded then
          Some
            (if cfg.Config.reg_cache then
               Threaded.choose_slots ~spill_points:n_parts ir
             else (-1, -1))
        else None
      in
      let off = ref 0 in
      let segs =
        List.mapi
          (fun pi ((b : block), ds, seam) ->
            let n = List.length ds in
            let elide_uncond =
              pi < n_parts - 1
              && match seam with Seam_uncond _ -> true | _ -> false
            in
            let s_code, s_uops =
              emit_unit ctx ~mmu_on:b.mmu_on ?slots ~elide_uncond (Array.sub ir !off n)
            in
            off := !off + n;
            {
              s_va = b.va;
              s_end_va = b.end_va;
              s_page = b.page;
              s_page2 = b.page2;
              s_insns = n;
              s_uops;
              s_uncond = elide_uncond;
              s_code;
            })
          parts
      in
      let pages =
        List.sort_uniq compare
          (List.concat_map
             (fun ((b : block), _, _) ->
               if b.page2 >= 0 then [ b.page; b.page2 ] else [ b.page ])
             parts)
      in
      let tr =
        {
          t_entry = b0;
          t_gen = ctx.chain_gen;
          t_pages = pages;
          t_blocks = Array.of_list (List.map (fun (b, _, _) -> b) parts);
          t_segs = Array.of_list segs;
          t_valid = true;
        }
      in
      List.iter
        (fun ppage ->
          match Hashtbl.find_opt ctx.traces_by_page ppage with
          | Some l -> l := tr :: !l
          | None -> Hashtbl.add ctx.traces_by_page ppage (ref [ tr ]))
        pages;
      (* the interior blocks stop being dispatched individually once this
         trace is live; reset their counters so they don't immediately form
         rotated duplicates of the same loop *)
      Array.iteri (fun i (b : block) -> if i > 0 then b.hot <- 0) tr.t_blocks;
      Some tr

  (* Most attempts find no successor at all: say so before building the
     block list, so a failed attempt allocates nothing. *)
  let form_trace ctx (b0 : block) =
    let first = trace_successor ctx b0 b0 in
    if first == no_block || first == b0 then None else stitch_trace ctx b0

  (* A trace is dispatched only while its generation matches; a stale or
     invalidated trace is detached here so the block can re-profile. *)
  let live_trace ctx (blk : block) =
    match blk.trace with
    | None -> None
    | Some tr as live when tr.t_valid && tr.t_gen = ctx.chain_gen -> live
    | Some tr ->
      invalidate_trace ctx tr;
      blk.trace <- None;
      blk.hot <- 0;
      None

  let deliver ctx vector ~cause ~far ~return_addr =
    (match vector with
    | Exn.Data_abort ->
      (* without the fast path, a data abort reconstructs the full CPU state
         from the translated-code context (the expensive pre-v2.5.0-rc0
         recovery the paper's off-scale Data-Fault improvement removed) *)
      if not cfg.Config.data_fault_fast_path then
        for _ = 1 to 8 do
          sync_state ctx
        done
    | Exn.Prefetch_abort | Exn.Undefined | Exn.Syscall | Exn.Irq -> sync_state ctx
    | Exn.Reset -> ());
    Guest.deliver ctx.g vector ~cause ~far ~return_addr

  let[@inline] retire ctx n =
    Perf.add ctx.perf Perf.Insns n;
    Guest.tick ctx.g n

  (* Run a trace: segments execute back-to-back without chain-verify work or
     block re-dispatch.  Retirement is per segment, so fault accounting (and
     the operation-density metric) is exactly what block-by-block execution
     would report.  Every seam check fires only at an architecturally clean
     boundary — pc is correct (or restored, for elided seams) whenever the
     trace can exit.  [run_segs] runs segment [s] onwards and returns the
     index of the last one completed; [run_trace] returns that segment's
     block so normal chain dispatch resumes from it. *)
  let rec run_segs ctx (tr : trace) s =
    let cpu = ctx.cpu in
    let segs = tr.t_segs in
    let seg = Array.unsafe_get segs s in
    ctx.cur_page <- seg.s_page;
    ctx.cur_page2 <- seg.s_page2;
    cpu.Cpu.pc <- seg.s_end_va;
    exec_code seg.s_code;
    retire ctx seg.s_insns;
    Perf.add ctx.perf Perf.Uops seg.s_uops;
    if s + 1 >= Array.length segs then s
    else begin
      (* a store inside this segment may have invalidated a later
         constituent's page, and (in principle) an op may have bumped the
         generation: both force an exit before stale code can run *)
      let live = tr.t_valid && ctx.chain_gen = tr.t_gen in
      let nxt = Array.unsafe_get segs (s + 1) in
      if seg.s_uncond then
        if live then run_segs ctx tr (s + 1)
        else begin
          (* the elided seam branch never wrote pc; restore the
             architectural target before falling back to dispatch *)
          cpu.Cpu.pc <- nxt.s_va;
          Perf.incr ctx.perf Perf.Trace_side_exits;
          s
        end
      else if live && cpu.Cpu.pc = nxt.s_va then run_segs ctx tr (s + 1)
      else begin
        Perf.incr ctx.perf Perf.Trace_side_exits;
        s
      end
    end

  let run_trace ctx (tr : trace) =
    Perf.incr ctx.perf Perf.Trace_dispatches;
    Array.unsafe_get tr.t_blocks (run_segs ctx tr 0)

  (* Phase syncs and switch requests are honoured at block and trace
     boundaries (the same granularity as interrupt delivery), so a switch
     stop lands a few instructions past the phase write: the runner reports
     the overshoot as [insns_into_kernel] and the resumed run credits it
     back. *)
  let execute ctx ~max_insns =
    let cpu = ctx.cpu in
    let machine = ctx.g.machine in
    let last = ref no_block in
    try
      while Perf.get ctx.perf Perf.Insns < max_insns do
        if Sb_mem.Benchdev.sync_pending machine.Machine.benchdev then
          Guest.phase_sync ctx.g;
        if Machine.irq_pending machine then begin
          sync_state ctx;
          deliver ctx Exn.Irq ~cause:Exn.Cause.irq ~far:None ~return_addr:cpu.Cpu.pc;
          last := no_block
        end
        else begin
          try
            let pc = cpu.Cpu.pc in
            let lb = !last in
            let blk =
              if cfg.Config.chain_direct && lb.chain_out then begin
                let b = chain_candidate ctx lb pc (Cpu.mmu_enabled cpu) in
                if b != no_block then begin
                  Perf.incr ctx.perf Perf.Chain_follows;
                  chain_verify ctx b;
                  b
                end
                else begin
                  let b = lookup_translate ctx pc in
                  chain_install ctx lb b;
                  b
                end
              end
              else lookup_translate ctx pc
            in
            (match if tracing then live_trace ctx blk else None with
            | Some tr -> last := run_trace ctx tr
            | None ->
              (if tracing && blk.chain_out then
                 match blk.trace with
                 | Some _ -> ()
                 | None ->
                   blk.hot <- blk.hot + 1;
                   if blk.hot >= cfg.Config.trace_threshold then begin
                     blk.hot <- 0;
                     blk.trace <- form_trace ctx blk
                   end);
              ctx.cur_page <- blk.page;
              ctx.cur_page2 <- blk.page2;
              cpu.Cpu.pc <- blk.end_va;
              exec_code blk.code;
              retire ctx blk.insns;
              Perf.add ctx.perf Perf.Uops blk.uops_total;
              last := blk)
          with
          | Guest.Fault { vector; cause; far; return_addr; retired } ->
            retire ctx retired;
            deliver ctx vector ~cause ~far ~return_addr;
            last := no_block
          | Smc_restart { resume_va; retired } ->
            retire ctx retired;
            cpu.Cpu.pc <- resume_va;
            last := no_block
          | Guest.Stop { reason; retired } ->
            retire ctx retired;
            raise (Guest.Stop { reason; retired = 0 })
        end
      done;
      Run_result.Insn_limit
    with Guest.Stop { reason; retired = _ } -> reason

  (* The last run's translations (block cache, traces, micro-TLBs) are
     kept while the machine is unchanged. *)
  let session = Guest.session ()
  let run ?max_insns machine =
    Guest.run session ~name ~make:make_ctx ~execute ?max_insns machine
end

module Make (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.default
    end)
