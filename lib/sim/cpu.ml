type t = {
  regs : int array;
  mutable pc : int;
  mutable mode : Sb_mmu.Access.privilege;
  mutable irq_enabled : bool;
  mutable flag_n : bool;
  mutable flag_z : bool;
  mutable flag_c : bool;
  mutable flag_v : bool;
  cop : int array;
}

let reset t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.pc <- 0;
  t.mode <- Sb_mmu.Access.Kernel;
  t.irq_enabled <- false;
  t.flag_n <- false;
  t.flag_z <- false;
  t.flag_c <- false;
  t.flag_v <- false;
  Array.fill t.cop 0 (Array.length t.cop) 0;
  t.cop.(Sb_isa.Cregs.cpuid) <- 0x5B00_0001

let create () =
  let t =
    {
      regs = Array.make 16 0;
      pc = 0;
      mode = Sb_mmu.Access.Kernel;
      irq_enabled = false;
      flag_n = false;
      flag_z = false;
      flag_c = false;
      flag_v = false;
      cop = Array.make Sb_isa.Cregs.count 0;
    }
  in
  reset t;
  t

let[@inline] mmu_enabled t =
  t.cop.(Sb_isa.Cregs.sctlr) land Sb_isa.Cregs.sctlr_mmu_enable <> 0

let bit b n = if b then 1 lsl n else 0

let psr_encode t =
  bit (t.mode = Sb_mmu.Access.Kernel) 0
  lor bit t.irq_enabled 1
  lor bit t.flag_n 4
  lor bit t.flag_z 5
  lor bit t.flag_c 6
  lor bit t.flag_v 7

let psr_restore t v =
  t.mode <- (if v land 1 <> 0 then Sb_mmu.Access.Kernel else Sb_mmu.Access.User);
  t.irq_enabled <- v land 2 <> 0;
  t.flag_n <- v land 0x10 <> 0;
  t.flag_z <- v land 0x20 <> 0;
  t.flag_c <- v land 0x40 <> 0;
  t.flag_v <- v land 0x80 <> 0

let pp ppf t =
  Format.fprintf ppf "pc=%a mode=%s irq=%b nzcv=%d%d%d%d@."
    Sb_util.U32.pp t.pc
    (match t.mode with Sb_mmu.Access.Kernel -> "krn" | User -> "usr")
    t.irq_enabled
    (Bool.to_int t.flag_n) (Bool.to_int t.flag_z)
    (Bool.to_int t.flag_c) (Bool.to_int t.flag_v);
  Array.iteri
    (fun i r ->
      Format.fprintf ppf "r%-2d=%a%s" i Sb_util.U32.pp r
        (if i mod 4 = 3 then "\n" else "  "))
    t.regs
