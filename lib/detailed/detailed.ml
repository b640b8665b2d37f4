module Make (A : Sb_isa.Arch_sig.ARCH) =
  Sb_interp.Core.Make
    (A)
    (struct
      let name = Printf.sprintf "detailed-%s" A.name

      let features =
        [
          ("Execution Model", "Detailed Interpreter");
          ("Memory Access", "Modelled TLB");
          ("Code Generation", "None");
          ("Control Flow", "Interpreted");
          ("Interrupts", "Insn. Boundaries");
          ("Synchronous Exceptions", "Interpreted");
          ("Undefined Instruction", "Interpreted");
        ]

      let technique = Sb_interp.Core.Detailed
    end)
