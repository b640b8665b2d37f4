(** Detailed (timing) interpreter engine — the Gem5 analog, an
    instantiation of {!Sb_interp.Core} with the [Detailed] technique.

    Figure 4 row: interpreter execution model, modelled TLB, no code
    generation, interpreted control flow, interrupts at instruction
    boundaries.

    Every instruction is re-decoded and pushed through a five-stage
    discrete-event pipeline (fetch, decode, execute, memory, writeback) with
    modelled split TLBs and L1 instruction/data caches.  The functional
    result is bit-identical to the fast interpreter — the equivalence
    property tests enforce it — but the engine additionally produces a cycle
    count, and the modelling work makes it one to two orders of magnitude
    slower to host-execute, exactly the trade the paper measures. *)

module Make (A : Sb_isa.Arch_sig.ARCH) : sig
  include Sb_sim.Engine.ENGINE

  val last_cycles : unit -> int
  (** Simulated cycles of the most recent [run] (a timing-model output the
      functional engines cannot provide). *)
end
