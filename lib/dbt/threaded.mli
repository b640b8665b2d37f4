(** Token-threaded code generation and execution.

    [compile] lowers a translation unit's optimised IR (one basic block, or
    one segment of a stitched trace) into a flat [int array] opstream —
    opcode word + operand words per micro-op, END-terminated — and the
    runner {!prepare} returns runs it with a tail-dispatched loop: one
    array read and one jump-table branch per token, no per-uop closure
    allocation.

    The two hottest guest registers of the unit (static reference count,
    {!choose_slots}) are carried in the dispatch loop's parameters instead
    of the register file ("trace-scope register allocation"); they are
    spilled back only at END (segment seams / side exits) and immediately
    before any host callback that can fault.  Guest loads and stores probe a
    direct-mapped (va -> host offset) micro-TLB ({!Sb_mmu.Mtlb}) and on a
    hit access {!Sb_mem.Phys_mem} directly; everything else — page walks,
    permission faults, MMIO, page-crossing accesses — goes through the
    [host] callbacks into the engine's existing slow paths.

    docs/threaded.md documents the opstream format and the spill rules;
    [model] decodes a compiled program back into micro-op lists so the
    translation validator can prove the lowering against the reference
    semantics. *)

type program = {
  code : int array;  (** the opstream; END-terminated *)
  ra : int;  (** guest register cached in slot A, or -1 *)
  rb : int;  (** guest register cached in slot B, or -1 (only if [ra >= 0]) *)
  p_insns : int;  (** guest instructions covered *)
  p_uops : int;  (** IR micro-ops lowered, including zero-token ones *)
  meta : (int * int * int) array;
      (** per instruction: opstream offset, virtual address, length *)
}

(** Callbacks into the owning engine for everything the opstream cannot do
    inline: the memory slow paths, SMC invalidation, translation changes,
    TLB maintenance and WFI.  SVC, undefined instructions and HALT raise
    {!Sb_sim.Guest.Fault} and {!Sb_sim.Guest.Stop} from the opstream
    itself.  Anything that can raise runs only after cached registers have
    been spilled, so fault delivery observes architectural register
    state. *)
type host = {
  h_cpu : Sb_sim.Cpu.t;
  h_perf : Sb_sim.Perf.t;
  h_ram : Sb_mem.Phys_mem.t;
  h_ram_limit : int;  (** bytes of flat RAM mapped at physical address 0 *)
  h_code_pages : Bytes.t;
      (** physical code-page bitmap: stores that hit a marked page divert to
          [h_store_smc] after writing *)
  h_dtlb_r : Sb_mmu.Mtlb.t;
  h_dtlb_w : Sb_mmu.Mtlb.t;
  h_load_slow :
    mmu:bool ->
    width:Sb_isa.Uop.width ->
    user:bool ->
    va:int ->
    iva:int ->
    iidx:int ->
    int;
  h_store_slow :
    mmu:bool ->
    width:Sb_isa.Uop.width ->
    user:bool ->
    va:int ->
    v:int ->
    iva:int ->
    resume_va:int ->
    iidx:int ->
    unit;
  h_store_smc : ppage:int -> resume_va:int -> iidx:int -> unit;
  h_cop_write : creg:int -> value:int -> iva:int -> iidx:int -> unit;
  h_tlb_inv_page : va:int -> unit;
  h_tlb_inv_all : unit -> unit;
  h_wfi : iidx:int -> unit;
}

val choose_slots : ?spill_points:int -> Ir.insn array -> int * int
(** The two most-referenced guest registers of the unit (each needs two or
    more static references to earn a slot), as [(ra, rb)] with [-1] for an
    unfilled slot.  For traces, call this once over the concatenated IR of
    every segment and pass the result to each segment's [compile] so the
    same registers stay cached across seams.  [spill_points] (default 1)
    is the number of spill/reload boundaries the unit executes — the
    segment count for a trace; units averaging too few uops per boundary
    come back uncached [(-1, -1)], since seam traffic would exceed the
    trampoline savings. *)

val compile :
  ?slots:int * int ->
  ?elide_uncond_seam:bool ->
  reg_cache:bool ->
  mmu:bool ->
  Ir.insn array ->
  program
(** Lower optimised IR to an opstream.  [slots] overrides slot selection
    (trace segments); otherwise [reg_cache] decides whether {!choose_slots}
    runs.  [mmu] selects physical (flat-RAM bounds check) or virtual
    (micro-TLB probe) memory fast paths — a program is only valid for the
    translation regime it was compiled for, mirroring the engine's keying of
    blocks by [mmu_on].  [elide_uncond_seam] drops the pc write of a
    trailing unconditional direct branch (trace seam into the next
    segment). *)

val prepare : host -> program -> unit -> unit
(** Bind an opstream to a host once, returning a runner that dispatches
    it from the top to its END token.  All environment setup (field loads,
    the dispatch closures) happens at [prepare] time, so each call of the
    runner costs one indirect call — translation caches the runner per
    block.  Guest faults, stops and the owning engine's SMC restarts
    propagate out of the runner. *)

val model : mmu:bool -> program -> (int * int * Sb_isa.Uop.t list) list
(** Decode a compiled program back to [(va, len, uops)] per instruction —
    the exact micro-op semantics the opstream implements, for translation
    validation.  Redundant inline operands (instruction VA, resume VA,
    return address, retirement index) are checked against [meta]; a
    mismatch appends a poison {!Sb_isa.Uop.Undef} to that instruction so a
    broken emitter shows up as a semantic divergence. *)
