(** The guest runtime every engine shares.

    The interpretive core ([Sb_interp.Core]: interp, virt, native and
    detailed) and the DBT ([Sb_dbt.Dbt], both backends) differ by their
    Figure 4 techniques and by nothing a guest can see.  What a guest can
    see lives here once: the fault it takes, the RAM and device accesses it
    makes with their counters, the code-page bitmap behind self-modifying
    code detection, exception entry with its per-vector counts, device time
    batched per retired instruction and synchronised at phase edges, and
    the run itself with the per-machine session that keeps an engine's
    context warm between runs.

    The per-instruction, per-access and per-block helpers are [[@inline]],
    so an engine calling them pays no call. *)

val page_shift : int
val page_size : int
val page_mask : int

exception Fault of {
  vector : Exn.vector;
  cause : int;
  far : int option;
  return_addr : int;
  retired : int;
      (** instructions of the current unit that retired before the fault:
          always 0 on the interpretive core, whose unit is one
          instruction; a block's or trace segment's count on the DBT *)
}
(** A guest exception raised inside a unit; the engine retires [retired]
    instructions and delivers it. *)

exception Stop of { reason : Run_result.stop_reason; retired : int }
(** The run ends: HALT, a WFI that can never wake, or a switch point
    ({!phase_sync}).  [retired] as in {!Fault}. *)

type t = private {
  machine : Machine.t;
  cpu : Cpu.t;
  bus : Sb_mem.Bus.t;
  perf : Perf.t;  (** the live counters of the current run *)
  code_pages : Bytes.t;
      (** one bit per physical RAM page holding code an engine derived
          state from (predecoded instructions, translated blocks); the
          threaded DBT opstream tests it inline *)
  mutable timer_backlog : int;
}

(** {1 The code-page bitmap} *)

val is_code : t -> int -> bool
val mark_code : t -> int -> unit

val code_invalidated : t -> int -> unit
(** The engine has dropped what it derived from this physical page after
    a store to it: unmark the page and count [Smc_invalidations]. *)

(** {1 Faults} *)

val data_fault :
  iaddr:int -> retired:int -> kind:Sb_mmu.Access.kind -> va:int ->
  Sb_mmu.Access.fault -> 'a
(** A translation or permission abort: prefetch abort on [Execute], data
    abort otherwise.  Every abort returns to the faulting instruction
    [iaddr], also when the fault is on a tail byte of an instruction that
    straddles a page. *)

val bus_fault : iaddr:int -> retired:int -> kind:Sb_mmu.Access.kind -> va:int -> 'a
(** An access the bus rejects, with the bus-error cause. *)

val undefined : iaddr:int -> retired:int -> 'a
val syscall : return_addr:int -> retired:int -> 'a

(** {1 Translation} *)

val walk :
  t ->
  va:int ->
  kind:Sb_mmu.Access.kind ->
  iaddr:int ->
  retired:int ->
  Sb_mmu.Walker.mapping
(** A page-table walk under the current TTBR: counts [Mmu_walks] and
    [Walk_levels], and raises the translation abort of a missing
    mapping. *)

(** {1 Physical access} *)

val read_ram : Sb_mem.Bus.t -> Sb_isa.Uop.width -> int -> int
val write_ram : Sb_mem.Bus.t -> Sb_isa.Uop.width -> int -> int -> unit

val read_io :
  t -> iaddr:int -> retired:int -> va:int -> Sb_isa.Uop.width -> int -> int
(** A device read: counts [Io_reads]; a bus error becomes a data abort at
    [va]. *)

val write_io :
  t -> iaddr:int -> retired:int -> va:int -> Sb_isa.Uop.width -> int -> int -> unit

val read_phys :
  t -> iaddr:int -> retired:int -> va:int -> Sb_isa.Uop.width -> int -> int

val write_phys :
  t -> iaddr:int -> retired:int -> va:int -> Sb_isa.Uop.width -> int -> int -> bool
(** [true] when the store wrote a RAM page marked in the code-page bitmap;
    the engine then invalidates what it derived from the page and calls
    {!code_invalidated}. *)

(** {1 Modelled register-file copies} *)

val copy_words : int array -> int array -> int -> unit
(** [copy_words src dst n] copies the first [n] words of [src] to [dst]
    with unchecked typed stores, whose cost does not depend on GC state as
    [Array.blit]'s does.  [n] must not exceed either length: callers check
    the register file once with {!check_register_file}. *)

val check_register_file : who:string -> Cpu.t -> unit
(** Raise [Invalid_argument] unless the CPU has 16 registers and
    [Sb_isa.Cregs.count] coprocessor registers, the lengths the modelled
    copies rely on. *)

(** {1 Exceptions} *)

val deliver :
  t -> Exn.vector -> cause:int -> far:int option -> return_addr:int -> unit
(** Count [Exceptions_total] and the vector's own counter, and enter the
    vector.  Engines charge their technique's entry cost before calling
    it. *)

val halt : retired:int -> 'a

val wait_for_interrupt : t -> retired:int -> unit
(** Architectural WFI: advance the timer until the interrupt controller has
    an enabled line pending (wake even if the CPU masks IRQs, as real WFI
    does).  Raises {!Stop} [Wfi_deadlock] when no interrupt source can ever
    fire. *)

(** {1 Device time} *)

val tick : t -> int -> unit
(** [n] more instructions of device time, pushed to the timer 64 or more
    at a time. *)

val phase_sync : t -> unit
(** Call when the bench device requests a phase sync: push the batched
    ticks, clear the request, and raise {!Stop} [Switch_point] if a switch
    was requested. *)

(** {1 The session} *)

type 'ctx session

val session : unit -> 'ctx session

val run :
  'ctx session ->
  name:string ->
  make:(?prev:'ctx -> t -> 'ctx) ->
  execute:('ctx -> max_insns:int -> Run_result.stop_reason) ->
  ?max_insns:int ->
  Machine.t ->
  Run_result.t
(** One engine run: time it, snapshot the counters at the kernel phase
    edges, and assemble the {!Run_result.t}.  The last run's context is
    kept and reused while the machine and its [state_gen] are unchanged,
    its counters reset in place: a debugger stepping the same machine
    stays warm.  Any external state change ([load_program], [reset], snapshot
    restore, [Machine.touch]) builds a new context, and [make] gets the
    replaced one, which nothing else can reach (engines are not
    re-entrant), to recycle its tables.  [max_insns] defaults to
    {!Runner.insn_budget}; batched ticks are flushed when [execute]
    returns. *)
