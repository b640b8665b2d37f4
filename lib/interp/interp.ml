module Config = struct
  type t = { predecode : bool }

  let default = { predecode = true }
end

module Make_configured
    (A : Sb_isa.Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
  Core.Make
    (A)
    (struct
      let name = Printf.sprintf "interp-%s" A.name

      let features =
        [
          ("Execution Model", "Fast Interpreter");
          ("Memory Access", "Single Level Cache");
          ("Code Generation", "None");
          ("Control Flow", "Interpreted");
          ("Interrupts", "Insn. Boundaries");
          ("Synchronous Exceptions", "Interpreted");
          ("Undefined Instruction", "Interpreted");
        ]

      let technique = Core.Fast_interp { predecode = C.config.Config.predecode }
    end)

module Make (A : Sb_isa.Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.default
    end)
