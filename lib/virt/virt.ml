module Config = struct
  type t = { vm_exit_rounds : int; name_suffix : string }

  let virt = { vm_exit_rounds = 96; name_suffix = "virt" }
  let native = { vm_exit_rounds = 0; name_suffix = "native" }
end

module Make_configured
    (A : Sb_isa.Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
  Sb_interp.Core.Make
    (A)
    (struct
      let name = Printf.sprintf "%s-%s" C.config.Config.name_suffix A.name

      let features =
        if C.config.Config.vm_exit_rounds = 0 then
          [
            ("Execution Model", "Direct");
            ("Memory Access", "Direct");
            ("Code Generation", "None");
            ("Control Flow", "Direct");
            ("Interrupts", "Direct");
            ("Synchronous Exceptions", "Direct");
            ("Undefined Instruction", "Direct");
          ]
        else
          [
            ("Execution Model", "Direct");
            ("Memory Access", "Direct (HW TLB)");
            ("Code Generation", "None");
            ("Control Flow", "Direct");
            ("Interrupts", "Via Emulation Layer");
            ("Synchronous Exceptions", "Direct");
            ("Undefined Instruction", "Hypercall");
          ]

      let technique =
        Sb_interp.Core.Direct { vm_exit_rounds = C.config.Config.vm_exit_rounds }
    end)

module Make_virt (A : Sb_isa.Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.virt
    end)

module Make_native (A : Sb_isa.Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.native
    end)
