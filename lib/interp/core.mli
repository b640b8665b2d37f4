(** The interpretive core behind the fast interpreter ({!Interp}), the
    direct-execution engines ([Sb_virt.Virt]) and the detailed timing model
    ([Sb_detailed.Detailed]).

    One copy of micro-op execution serves all four, over the guest runtime
    every engine shares ({!Sb_sim.Guest}: faults, physical access, the
    code-page bitmap, exception entry, device time and the session).  The
    engines differ only by technique, as the paper's Figure 4 tells them
    apart:

    {v
    engine    translation                fetch                            trap cost
    interp    modelled unified TLB       front cache over predecoded      direct
                                         pages
    virt      flat tagged host TLB       current-page fetch over          vm-exit rounds
              on zero pages              predecoded pages
    native    flat tagged host TLB       current-page fetch               direct
              on zero pages
    detailed  split untagged TLBs        a decode on every fetch,         direct
                                         through a five-stage pipeline
    v}

    Interp, virt and native predecode by physical page, one slot per
    byte offset, in 64 chunks of 64 slots (64 bytes of code each).  A
    chunk is allocated by the first decode into it and every unfilled
    chunk is one shared empty chunk, so a page holds host memory only
    where its code lies.  A slot holds the decoded instruction itself, an
    empty one a sentinel whose address no fetch has, so a lookup is two
    unchecked loads, the chunk and the instruction.  A store to a
    predecoded page clears its filled chunks in place, so a re-decode
    allocates nothing.

    The flat host TLB has one slot per 4 KiB page of the 32-bit space, in
    a zero mapping ({!Sb_mem.Phys_mem.zero_buf}): host memory backs only
    the pages of slots some run has written, outside the OCaml heap.  A
    rebuilt context takes its predecessor's table over at a fresh tag
    generation.  The modelled TLBs are {!Sb_mmu.Page_cache} instances
    with one level, flushed eagerly.  Counters follow the technique:
    [Tlb_hit]/[Tlb_miss] only with a modelled TLB, [Front_cache_hits] and
    the cross-page branch counters only on the fast interpreter,
    [Vm_exits] only when exits cost rounds.  Every abort returns to the
    faulting instruction. *)

type technique =
  | Fast_interp of { predecode : bool }
      (** without [predecode], a decode on every fetch and no front
          cache *)
  | Direct of { vm_exit_rounds : int }
      (** the flat host TLB, resident only where written, and state
          save/restore rounds per vm-exit; 0 takes none *)
  | Detailed
      (** cycles from a discrete-event pipeline with modelled L1 caches *)

module type CONFIG = sig
  val name : string
  val features : (string * string) list
  val technique : technique
end

module Make (A : Sb_isa.Arch_sig.ARCH) (C : CONFIG) : sig
  include Sb_sim.Engine.ENGINE

  val last_cycles : unit -> int
  (** Simulated cycles of the most recent [run] under [Detailed]; 0 under
      the other techniques. *)
end
