(** Direct-execution engines: the hardware-assisted-virtualization (QEMU-KVM)
    analog and the native-hardware baseline, both instantiations of
    {!Sb_interp.Core} with the [Direct] technique.

    Both engines share the same direct-execution technique: guest translations
    are resolved through a flat, hardware-style translation cache covering
    the whole address space (no geometry conflicts, no software-TLB
    evictions), code is executed from pre-decoded pages, and there is no
    per-access privilege-modelling overhead beyond the architectural check.

    They differ exactly where virtualization and bare metal differ
    (Section III-B2 of the paper):

    - on the {b virt} engine, device accesses, undefined instructions,
      interrupt injection and WFI each take a {e vm-exit} — a full vCPU
      state save/restore plus a pass through the emulation-layer dispatcher
      — while syscalls, page faults and ordinary memory traffic run at
      guest speed;
    - on the {b native} engine those operations are direct.

    The vm-exit cost is deliberate simulated hardware: there is no
    hypervisor in this repository, so the world-switch work is modelled by
    measurable state-copy rounds (see DESIGN.md, substitution table). *)

module Config : sig
  type t = {
    vm_exit_rounds : int;
        (** state save/restore rounds per vm-exit; 0 means no exit taken *)
    name_suffix : string;
  }

  val virt : t
  val native : t
end

module Make_configured
    (A : Sb_isa.Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) : Sb_sim.Engine.ENGINE

module Make_virt (A : Sb_isa.Arch_sig.ARCH) : Sb_sim.Engine.ENGINE
module Make_native (A : Sb_isa.Arch_sig.ARCH) : Sb_sim.Engine.ENGINE
