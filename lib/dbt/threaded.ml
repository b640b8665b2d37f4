open Sb_isa
open Sb_sim

(* Token-threaded backend: [compile] lowers a block's (or trace segment's)
   optimised IR into a flat [int array] opstream — an opcode word followed by
   its operand words, terminated by END — executed by the
   tail-dispatched loop [prepare] returns.  No per-uop closure is allocated and no pointer is
   chased per retired micro-op: dispatch is one array read and one jump-table
   branch (OCaml compiles a dense integer match into a jump table).

   Register caching: the two hottest guest registers of the translation unit
   (by static reference count — trace-wide when the caller stitched
   segments, see [choose_slots]) travel as parameters [a]/[b] of the
   dispatch loop instead of going through the register file.  Operand
   "locations" 0..15 name guest registers, 16 names slot A, 17 slot B; the
   compiler rewrites every reference to a cached register to its slot, so
   the register file is written only at [spill] points: END (segment seam /
   side exit) and immediately before any host call that can raise (memory
   faults, SVC, undefined, translation-affecting ops) — exception delivery
   must observe architectural register state.

   Memory fast path: loads and stores probe a direct-mapped
   (va -> host offset) micro-TLB ({!Sb_mmu.Mtlb}, filled by the engine's
   slow path after a successful walk + permission check over a page wholly
   resident in flat RAM) and on a hit read/write {!Sb_mem.Phys_mem} through
   its unchecked accessors.  [Sb_mem.Bus] dispatch, page walks, permission
   faults, MMIO and page-crossing accesses all live behind the [host]
   callbacks.

   Parity contract: every opcode's observable behaviour (register values,
   flags, pc, architectural perf counters, fault identity and ordering)
   matches the closure emitter in [Dbt] uop for uop; [model] decodes an
   opstream back to the micro-op sequence it implements so the translation
   validator can prove it against the reference semantics. *)

let u32_mask = 0xFFFF_FFFF
let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

type program = {
  code : int array;
  ra : int;  (* guest register cached in slot A, or -1 *)
  rb : int;  (* guest register cached in slot B, or -1 (requires ra >= 0) *)
  p_insns : int;
  p_uops : int;  (* every IR uop, including ones that lower to no tokens *)
  meta : (int * int * int) array;  (* per insn: code offset, va, length *)
}

(* Host interface: everything the opstream cannot do inline.  All closures
   are over the owning engine's context; any callback that can raise is
   reached only after a [spill]. *)
type host = {
  h_cpu : Cpu.t;
  h_perf : Perf.t;
  h_ram : Sb_mem.Phys_mem.t;
  h_ram_limit : int;  (* bytes of flat RAM mapped at physical 0 *)
  h_code_pages : Bytes.t;  (* physical code-page bitmap, for SMC on stores *)
  h_dtlb_r : Sb_mmu.Mtlb.t;
  h_dtlb_w : Sb_mmu.Mtlb.t;
  h_load_slow :
    mmu:bool ->
    width:Uop.width ->
    user:bool ->
    va:int ->
    iva:int ->
    iidx:int ->
    int;
  h_store_slow :
    mmu:bool ->
    width:Uop.width ->
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

(* ---------------- opcode table ---------------------------------------- *)
(* Operand words follow each opcode; the executor's match arms must use
   integer literals to compile to a jump table, so keep this list and the
   match in [prepare] in lockstep.  d/l/s/ln/lm are locations (0..15 guest
   register, 16 slot A, 17 slot B); k..=0 means the next word is an
   immediate, k..=1 a location; link is a location or -1. *)

let op_end = 0 (* END *)
let op_movi = 1 (* MOVI d imm *)
let op_mov = 2 (* MOV d l *)
let op_addi = 3 (* ADDI d l imm *)
let op_subi = 4 (* SUBI d l imm *)
let op_andi = 5 (* ANDI d l imm *)
let op_orri = 6 (* ORRI d l imm *)
let op_xori = 7 (* XORI d l imm *)
let op_muli = 8 (* MULI d l imm *)
let op_addr = 9 (* ADDR d ln lm *)
let op_subr = 10 (* SUBR d ln lm *)
let op_andr = 11 (* ANDR d ln lm *)
let op_orrr = 12 (* ORRR d ln lm *)
let op_xorr = 13 (* XORR d ln lm *)
let op_mulr = 14 (* MULR d ln lm *)
let op_lsli = 15 (* LSLI d l sh   (0 <= sh < 32) *)
let op_lsri = 16 (* LSRI d l sh *)
let op_asri = 17 (* ASRI d l sh   (0 <= sh <= 31) *)
let op_lslr = 18 (* LSLR d kn vn l *)
let op_lsrr = 19 (* LSRR d kn vn l *)
let op_asrr = 20 (* ASRR d kn vn l *)
let op_alu = 21 (* ALU aluop d kn vn km vm *)
let op_flags = 22 (* FLAGS aluop kd d kn vn km vm *)
let op_ld8p = 23 (* LD8P d kb vb off iva iidx   (physical: MMU off) *)
let op_ld16p = 24 (* LD16P d kb vb off iva iidx *)
let op_ld32p = 25 (* LD32P d kb vb off iva iidx *)
let op_ld8v = 26 (* LD8V d kb vb off iva iidx   (virtual: micro-TLB probe) *)
let op_ld16v = 27 (* LD16V d kb vb off iva iidx *)
let op_ld32v = 28 (* LD32V d kb vb off iva iidx *)
let op_ldu = 29 (* LDU m w d kb vb off iva iidx   (user-mode: always slow) *)
let op_st8p = 30 (* ST8P s kb vb off iva rva iidx *)
let op_st16p = 31 (* ST16P s kb vb off iva rva iidx *)
let op_st32p = 32 (* ST32P s kb vb off iva rva iidx *)
let op_st8v = 33 (* ST8V s kb vb off iva rva iidx *)
let op_st16v = 34 (* ST16V s kb vb off iva rva iidx *)
let op_st32v = 35 (* ST32V s kb vb off iva rva iidx *)
let op_stu = 36 (* STU m w s kb vb off iva rva iidx *)
let op_bd = 37 (* BD t link ret *)
let op_bi = 38 (* BI l link ret *)
let op_bcd = 39 (* BCD cond t link ret *)
let op_bci = 40 (* BCI cond l link ret *)
let op_bseam = 41 (* BSEAM link ret   (elided seam branch: no pc write) *)
let op_svc = 42 (* SVC imm ret iidx *)
let op_undef = 43 (* UNDEF iva iidx *)
let op_eret = 44 (* ERET *)
let op_coprd = 45 (* COPRD d creg *)
let op_copwr = 46 (* COPWR creg ks vs iva iidx *)
let op_tlbip = 47 (* TLBIP l *)
let op_tlbia = 48 (* TLBIA *)
let op_wfi = 49 (* WFI iidx *)
let op_halt = 50 (* HALT iidx *)

(* Specialised forms of the hottest shapes, selected at compile time when
   the operands allow it.  They skip the rd/wr location trampolines: the
   in-place add touches one known cell (or a cached-register loop
   parameter), and the linkless branches have no write at all. *)
let op_addip = 51 (* ADDIP d imm   (plain reg, src = dst) *)
let op_addia = 52 (* ADDIA imm     (slot A, src = dst) *)
let op_addib = 53 (* ADDIB imm     (slot B, src = dst) *)
let op_bd0 = 54 (* BD0 t ret     (direct branch, no link) *)
let op_bseam0 = 55 (* BSEAM0        (elided seam branch, no link) *)

let alu_code = function
  | Uop.Add -> 0
  | Uop.Sub -> 1
  | Uop.And_ -> 2
  | Uop.Orr -> 3
  | Uop.Xor -> 4
  | Uop.Lsl -> 5
  | Uop.Lsr -> 6
  | Uop.Asr -> 7
  | Uop.Mul -> 8

let alu_of_code = function
  | 0 -> Uop.Add
  | 1 -> Uop.Sub
  | 2 -> Uop.And_
  | 3 -> Uop.Orr
  | 4 -> Uop.Xor
  | 5 -> Uop.Lsl
  | 6 -> Uop.Lsr
  | 7 -> Uop.Asr
  | _ -> Uop.Mul

let cond_code = function
  | Uop.Always -> 0
  | Uop.Eq -> 1
  | Uop.Ne -> 2
  | Uop.Lt -> 3
  | Uop.Ge -> 4
  | Uop.Ltu -> 5
  | Uop.Geu -> 6

let cond_of_code = function
  | 1 -> Uop.Eq
  | 2 -> Uop.Ne
  | 3 -> Uop.Lt
  | 4 -> Uop.Ge
  | 5 -> Uop.Ltu
  | _ -> Uop.Geu

let width_code = function Uop.W8 -> 0 | Uop.W16 -> 1 | Uop.W32 -> 2
let width_of_code = function 0 -> Uop.W8 | 1 -> Uop.W16 | _ -> Uop.W32

(* ---------------- trace-scope slot selection --------------------------- *)

(* Caching only pays when enough uops run between two spill points to
   amortise the entry loads and exit spills; below this the trampoline
   savings are smaller than the seam traffic (measured on the
   control-flow benchmarks, whose 2-uop segments lose ~10% to
   unconditional caching). *)
let slot_min_uops = 12

(* Static reference counts over the whole translation unit (for a trace,
   the caller passes the concatenated IR of every segment so the same two
   registers stay cached across seams).  A register earns a slot only with
   two or more references — below that the entry load + exit spill cost
   exceeds the saving.  [spill_points] is the number of spill/reload
   boundaries the unit will execute (1 for a plain block, the segment
   count for a trace): units averaging fewer than [slot_min_uops] uops
   per boundary run uncached. *)
let choose_slots ?(spill_points = 1) (ir : Ir.insn array) =
  let total =
    Array.fold_left (fun acc i -> acc + List.length i.Ir.uops) 0 ir
  in
  if total < slot_min_uops * spill_points then (-1, -1)
  else
  let counts = Array.make 16 0 in
  let reg r = counts.(r) <- counts.(r) + 1 in
  let operand = function Uop.Reg r -> reg r | Uop.Imm _ -> () in
  Array.iter
    (fun (insn : Ir.insn) ->
      List.iter
        (fun uop ->
          match uop with
          | Uop.Alu { rd; rn; rm; _ } ->
            Option.iter reg rd;
            operand rn;
            operand rm
          | Uop.Load { rd; base; _ } ->
            reg rd;
            operand base
          | Uop.Store { rs; base; _ } ->
            reg rs;
            operand base
          | Uop.Branch { target; link; _ } ->
            (match target with Uop.Indirect r -> reg r | Uop.Direct _ -> ());
            Option.iter reg link
          | Uop.Cop_read { rd; _ } -> reg rd
          | Uop.Cop_write { src; _ } -> operand src
          | Uop.Tlb_inv_page r -> reg r
          | Uop.Nop | Uop.Svc _ | Uop.Undef | Uop.Eret | Uop.Tlb_inv_all
          | Uop.Wfi | Uop.Halt ->
            ())
        insn.Ir.uops)
    ir;
  let best exclude =
    let r = ref (-1) in
    for i = 0 to 15 do
      if i <> exclude && counts.(i) >= 2 && (!r < 0 || counts.(i) > counts.(!r))
      then r := i
    done;
    !r
  in
  let ra = best (-1) in
  if ra < 0 then (-1, -1) else (ra, best ra)

(* ---------------- compilation ----------------------------------------- *)

let compile ?slots ?(elide_uncond_seam = false) ~reg_cache ~mmu
    (ir : Ir.insn array) =
  let ra, rb =
    match slots with
    | Some s -> s
    | None -> if reg_cache then choose_slots ir else (-1, -1)
  in
  let loc r = if r = ra then 16 else if r = rb then 17 else r in
  let opnd = function
    | Uop.Reg r -> (1, loc r)
    | Uop.Imm v -> (0, v land u32_mask)
  in
  let buf = ref [] in
  let len = ref 0 in
  let emit ws =
    List.iter (fun w -> buf := w :: !buf) ws;
    len := !len + List.length ws
  in
  let uops_total = ref 0 in
  let n_insns = Array.length ir in
  let meta = Array.make n_insns (0, 0, 0) in
  Array.iteri
    (fun i (insn : Ir.insn) ->
      meta.(i) <- (!len, insn.Ir.va, insn.Ir.len);
      let iva = insn.Ir.va in
      let ilen = insn.Ir.len in
      let last_insn = i = n_insns - 1 in
      List.iter
        (fun uop ->
          incr uops_total;
          match uop with
          | Uop.Nop -> ()
          | Uop.Alu { op; rd; rn; rm; set_flags = true } ->
            let kd, d = match rd with None -> (0, 0) | Some r -> (1, loc r) in
            let kn, vn = opnd rn and km, vm = opnd rm in
            emit [ op_flags; alu_code op; kd; d; kn; vn; km; vm ]
          | Uop.Alu { rd = None; set_flags = false; _ } ->
            (* no destination, no flags: nothing to do (closure parity) *)
            ()
          | Uop.Alu { op; rd = Some r; rn; rm; set_flags = false } -> (
            let d = loc r in
            (* the specialisation table mirrors Dbt.emit_alu arm for arm;
               immediates are pre-masked to 32 bits, which is congruent for
               every op since register values are always kept masked *)
            match (op, rn, rm) with
            | Uop.Orr, Uop.Imm 0, Uop.Imm v | Uop.Orr, Uop.Imm v, Uop.Imm 0 ->
              emit [ op_movi; d; v land u32_mask ]
            | Uop.Orr, Uop.Reg rn, Uop.Imm 0 -> emit [ op_mov; d; loc rn ]
            | Uop.Add, Uop.Reg rn, Uop.Imm v ->
              let n = loc rn in
              let v = v land u32_mask in
              if n = d then
                if d < 16 then emit [ op_addip; d; v ]
                else if d = 16 then emit [ op_addia; v ]
                else emit [ op_addib; v ]
              else emit [ op_addi; d; n; v ]
            | Uop.Sub, Uop.Reg rn, Uop.Imm v ->
              emit [ op_subi; d; loc rn; v land u32_mask ]
            | Uop.Add, Uop.Reg x, Uop.Reg y -> emit [ op_addr; d; loc x; loc y ]
            | Uop.Sub, Uop.Reg x, Uop.Reg y -> emit [ op_subr; d; loc x; loc y ]
            | Uop.And_, Uop.Reg x, Uop.Reg y -> emit [ op_andr; d; loc x; loc y ]
            | Uop.And_, Uop.Reg rn, Uop.Imm v ->
              emit [ op_andi; d; loc rn; v land u32_mask ]
            | Uop.Orr, Uop.Reg x, Uop.Reg y -> emit [ op_orrr; d; loc x; loc y ]
            | Uop.Orr, Uop.Reg rn, Uop.Imm v ->
              emit [ op_orri; d; loc rn; v land u32_mask ]
            | Uop.Xor, Uop.Reg x, Uop.Reg y -> emit [ op_xorr; d; loc x; loc y ]
            | Uop.Xor, Uop.Reg rn, Uop.Imm v ->
              emit [ op_xori; d; loc rn; v land u32_mask ]
            | Uop.Mul, Uop.Reg x, Uop.Reg y -> emit [ op_mulr; d; loc x; loc y ]
            | Uop.Mul, Uop.Reg rn, Uop.Imm v ->
              emit [ op_muli; d; loc rn; v land u32_mask ]
            | Uop.Lsl, Uop.Reg rn, Uop.Imm v ->
              let s = v land 0xFF in
              if s >= 32 then emit [ op_movi; d; 0 ]
              else emit [ op_lsli; d; loc rn; s ]
            | Uop.Lsr, Uop.Reg rn, Uop.Imm v ->
              let s = v land 0xFF in
              if s >= 32 then emit [ op_movi; d; 0 ]
              else emit [ op_lsri; d; loc rn; s ]
            | Uop.Asr, Uop.Reg rn, Uop.Imm v ->
              emit [ op_asri; d; loc rn; min 31 (v land 0xFF) ]
            | (Uop.Lsl | Uop.Lsr | Uop.Asr), Uop.Imm n, Uop.Imm v ->
              (* constant shift of a constant: fold at translation time,
                 value-identical to the closure's generic Alu_eval call *)
              emit
                [
                  op_movi; d; Alu_eval.eval op (n land u32_mask) (v land u32_mask);
                ]
            | Uop.Lsl, rn, Uop.Reg rm ->
              let kn, vn = opnd rn in
              emit [ op_lslr; d; kn; vn; loc rm ]
            | Uop.Lsr, rn, Uop.Reg rm ->
              let kn, vn = opnd rn in
              emit [ op_lsrr; d; kn; vn; loc rm ]
            | Uop.Asr, rn, Uop.Reg rm ->
              let kn, vn = opnd rn in
              emit [ op_asrr; d; kn; vn; loc rm ]
            | _ ->
              let kn, vn = opnd rn and km, vm = opnd rm in
              emit [ op_alu; alu_code op; d; kn; vn; km; vm ])
          | Uop.Load { width; rd; base; offset; user } ->
            let kb, vb = opnd base in
            if user then
              emit
                [
                  op_ldu; (if mmu then 1 else 0); width_code width; loc rd; kb;
                  vb; offset; iva; i;
                ]
            else
              let opc =
                match (mmu, width) with
                | false, Uop.W8 -> op_ld8p
                | false, Uop.W16 -> op_ld16p
                | false, Uop.W32 -> op_ld32p
                | true, Uop.W8 -> op_ld8v
                | true, Uop.W16 -> op_ld16v
                | true, Uop.W32 -> op_ld32v
              in
              emit [ opc; loc rd; kb; vb; offset; iva; i ]
          | Uop.Store { width; rs; base; offset; user } ->
            let kb, vb = opnd base in
            let rva = iva + ilen in
            if user then
              emit
                [
                  op_stu; (if mmu then 1 else 0); width_code width; loc rs; kb;
                  vb; offset; iva; rva; i;
                ]
            else
              let opc =
                match (mmu, width) with
                | false, Uop.W8 -> op_st8p
                | false, Uop.W16 -> op_st16p
                | false, Uop.W32 -> op_st32p
                | true, Uop.W8 -> op_st8v
                | true, Uop.W16 -> op_st16v
                | true, Uop.W32 -> op_st32v
              in
              emit [ opc; loc rs; kb; vb; offset; iva; rva; i ]
          | Uop.Branch { cond; target; link } -> (
            let ret = (iva + ilen) land u32_mask in
            let lk = match link with Some l -> loc l | None -> -1 in
            match (cond, target) with
            | Uop.Always, Uop.Direct _ when elide_uncond_seam && last_insn ->
              (* seam branch into the next stitched segment: keep the
                 counters and the link write, drop the pc write *)
              if lk < 0 then emit [ op_bseam0 ] else emit [ op_bseam; lk; ret ]
            | Uop.Always, Uop.Direct t ->
              if lk < 0 then emit [ op_bd0; t; ret ]
              else emit [ op_bd; t; lk; ret ]
            | Uop.Always, Uop.Indirect r -> emit [ op_bi; loc r; lk; ret ]
            | _, Uop.Direct t -> emit [ op_bcd; cond_code cond; t; lk; ret ]
            | _, Uop.Indirect r ->
              emit [ op_bci; cond_code cond; loc r; lk; ret ])
          | Uop.Svc n ->
            emit [ op_svc; n; (iva + ilen) land u32_mask; i ]
          | Uop.Undef -> emit [ op_undef; iva; i ]
          | Uop.Eret -> emit [ op_eret ]
          | Uop.Cop_read { rd; creg } ->
            if creg < 0 || creg >= Cregs.count then emit [ op_undef; iva; i ]
            else emit [ op_coprd; loc rd; creg ]
          | Uop.Cop_write { creg; src } ->
            if creg < 0 || creg >= Cregs.count then emit [ op_undef; iva; i ]
            else
              let ks, vs = opnd src in
              emit [ op_copwr; creg; ks; vs; iva; i ]
          | Uop.Tlb_inv_page r -> emit [ op_tlbip; loc r ]
          | Uop.Tlb_inv_all -> emit [ op_tlbia ]
          | Uop.Wfi -> emit [ op_wfi; i ]
          | Uop.Halt -> emit [ op_halt; i ])
        insn.Ir.uops)
    ir;
  emit [ op_end ];
  let code = Array.make !len 0 in
  List.iteri (fun i w -> code.(!len - 1 - i) <- w) !buf;
  { code; ra; rb; p_insns = n_insns; p_uops = !uops_total; meta }

(* ---------------- execution ------------------------------------------- *)

(* [prepare] splits environment setup from dispatch: everything here —
   the field loads and the helper/dispatch closures — is allocated once
   per translated block, so the returned runner costs one indirect call
   per dispatch.  Building this environment inside the dispatch path
   instead costs ~10 closure allocations per block entry, which dominates
   on branchy short-block kernels. *)
let prepare h (p : program) =
  let code = p.code in
  let cpu = h.h_cpu in
  let regs = cpu.Cpu.regs in
  let cop = cpu.Cpu.cop in
  let perf = h.h_perf in
  let ram = h.h_ram in
  let ra = p.ra and rb = p.rb in
  let g i = Array.unsafe_get code i in
  let spill a b =
    if ra >= 0 then begin
      Array.unsafe_set regs ra a;
      if rb >= 0 then Array.unsafe_set regs rb b;
      Perf.incr perf Perf.Spills
    end
  in
  let rd a b l =
    if l < 16 then Array.unsafe_get regs l else if l = 16 then a else b
  in
  let ld a b k v = if k = 0 then v else rd a b v in
  let cond_true c =
    match c with
    | 1 -> cpu.Cpu.flag_z
    | 2 -> not cpu.Cpu.flag_z
    | 3 -> cpu.Cpu.flag_n <> cpu.Cpu.flag_v
    | 4 -> cpu.Cpu.flag_n = cpu.Cpu.flag_v
    | 5 -> not cpu.Cpu.flag_c
    | _ -> cpu.Cpu.flag_c
  in
  let priv () = if cpu.Cpu.mode = Sb_mmu.Access.Kernel then 1 else 0 in
  let code_page_hit ppage =
    Char.code (Bytes.unsafe_get h.h_code_pages (ppage lsr 3))
    land (1 lsl (ppage land 7))
    <> 0
  in
  let rec go ip a b =
    match Array.unsafe_get code ip with
    | 0 (* END *) -> spill a b
    | 1 (* MOVI *) -> wr (ip + 3) a b (g (ip + 1)) (g (ip + 2))
    | 2 (* MOV *) -> wr (ip + 3) a b (g (ip + 1)) (rd a b (g (ip + 2)))
    | 3 (* ADDI *) ->
      wr (ip + 4) a b (g (ip + 1)) ((rd a b (g (ip + 2)) + g (ip + 3)) land u32_mask)
    | 4 (* SUBI *) ->
      wr (ip + 4) a b (g (ip + 1)) ((rd a b (g (ip + 2)) - g (ip + 3)) land u32_mask)
    | 5 (* ANDI *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) land g (ip + 3))
    | 6 (* ORRI *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) lor g (ip + 3))
    | 7 (* XORI *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) lxor g (ip + 3))
    | 8 (* MULI *) ->
      wr (ip + 4) a b (g (ip + 1)) ((rd a b (g (ip + 2)) * g (ip + 3)) land u32_mask)
    | 9 (* ADDR *) ->
      wr (ip + 4) a b (g (ip + 1))
        ((rd a b (g (ip + 2)) + rd a b (g (ip + 3))) land u32_mask)
    | 10 (* SUBR *) ->
      wr (ip + 4) a b (g (ip + 1))
        ((rd a b (g (ip + 2)) - rd a b (g (ip + 3))) land u32_mask)
    | 11 (* ANDR *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) land rd a b (g (ip + 3)))
    | 12 (* ORRR *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) lor rd a b (g (ip + 3)))
    | 13 (* XORR *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) lxor rd a b (g (ip + 3)))
    | 14 (* MULR *) ->
      wr (ip + 4) a b (g (ip + 1))
        ((rd a b (g (ip + 2)) * rd a b (g (ip + 3))) land u32_mask)
    | 15 (* LSLI *) ->
      wr (ip + 4) a b (g (ip + 1)) ((rd a b (g (ip + 2)) lsl g (ip + 3)) land u32_mask)
    | 16 (* LSRI *) ->
      wr (ip + 4) a b (g (ip + 1)) (rd a b (g (ip + 2)) lsr g (ip + 3))
    | 17 (* ASRI *) ->
      wr (ip + 4) a b (g (ip + 1))
        (Sb_util.U32.shift_right_arith (rd a b (g (ip + 2))) (g (ip + 3)))
    | 18 (* LSLR *) ->
      wr (ip + 5) a b (g (ip + 1))
        (Sb_util.U32.shift_left
           (ld a b (g (ip + 2)) (g (ip + 3)))
           (rd a b (g (ip + 4)) land 0xFF))
    | 19 (* LSRR *) ->
      wr (ip + 5) a b (g (ip + 1))
        (Sb_util.U32.shift_right_logical
           (ld a b (g (ip + 2)) (g (ip + 3)))
           (rd a b (g (ip + 4)) land 0xFF))
    | 20 (* ASRR *) ->
      wr (ip + 5) a b (g (ip + 1))
        (Sb_util.U32.shift_right_arith
           (ld a b (g (ip + 2)) (g (ip + 3)))
           (rd a b (g (ip + 4)) land 0xFF))
    | 21 (* ALU *) ->
      wr (ip + 7) a b (g (ip + 2))
        (Alu_eval.eval (alu_of_code (g (ip + 1)))
           (ld a b (g (ip + 3)) (g (ip + 4)))
           (ld a b (g (ip + 5)) (g (ip + 6))))
    | 22 (* FLAGS *) ->
      let result =
        Alu_eval.eval_set_flags cpu (alu_of_code (g (ip + 1)))
          (ld a b (g (ip + 4)) (g (ip + 5)))
          (ld a b (g (ip + 6)) (g (ip + 7)))
      in
      if g (ip + 2) = 0 then go (ip + 8) a b
      else wr (ip + 8) a b (g (ip + 3)) result
    | 23 (* LD8P *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va < h.h_ram_limit then
        wr (ip + 7) a b (g (ip + 1)) (Sb_mem.Phys_mem.unsafe_read8 ram va)
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:false ~width:Uop.W8 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 24 (* LD16P *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va <= h.h_ram_limit - 2 then
        wr (ip + 7) a b (g (ip + 1)) (Sb_mem.Phys_mem.unsafe_read16 ram va)
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:false ~width:Uop.W16 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 25 (* LD32P *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va <= h.h_ram_limit - 4 then
        wr (ip + 7) a b (g (ip + 1)) (Sb_mem.Phys_mem.unsafe_read32 ram va)
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:false ~width:Uop.W32 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 26 (* LD8V *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let base =
        Sb_mmu.Mtlb.probe h.h_dtlb_r ~vpn:(va lsr page_shift)
          ~asid:(Array.unsafe_get cop Cregs.asid)
          ~priv:(priv ())
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        wr (ip + 7) a b (g (ip + 1))
          (Sb_mem.Phys_mem.unsafe_read8 ram (base lor (va land page_mask)))
      end
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:true ~width:Uop.W8 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 27 (* LD16V *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let off = va land page_mask in
      let base =
        if off <= page_size - 2 then
          Sb_mmu.Mtlb.probe h.h_dtlb_r ~vpn:(va lsr page_shift)
            ~asid:(Array.unsafe_get cop Cregs.asid)
            ~priv:(priv ())
        else -1
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        wr (ip + 7) a b (g (ip + 1))
          (Sb_mem.Phys_mem.unsafe_read16 ram (base lor off))
      end
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:true ~width:Uop.W16 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 28 (* LD32V *) ->
      Perf.incr perf Perf.Loads;
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let off = va land page_mask in
      let base =
        if off <= page_size - 4 then
          Sb_mmu.Mtlb.probe h.h_dtlb_r ~vpn:(va lsr page_shift)
            ~asid:(Array.unsafe_get cop Cregs.asid)
            ~priv:(priv ())
        else -1
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        wr (ip + 7) a b (g (ip + 1))
          (Sb_mem.Phys_mem.unsafe_read32 ram (base lor off))
      end
      else begin
        spill a b;
        let v =
          h.h_load_slow ~mmu:true ~width:Uop.W32 ~user:false ~va ~iva:(g (ip + 5))
            ~iidx:(g (ip + 6))
        in
        wr (ip + 7) a b (g (ip + 1)) v
      end
    | 29 (* LDU *) ->
      Perf.incr perf Perf.Loads;
      Perf.incr perf Perf.User_accesses;
      let va = (ld a b (g (ip + 4)) (g (ip + 5)) + g (ip + 6)) land u32_mask in
      spill a b;
      let v =
        h.h_load_slow
          ~mmu:(g (ip + 1) <> 0)
          ~width:(width_of_code (g (ip + 2)))
          ~user:true ~va ~iva:(g (ip + 7)) ~iidx:(g (ip + 8))
      in
      wr (ip + 9) a b (g (ip + 3)) v
    | 30 (* ST8P *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va < h.h_ram_limit then begin
        Sb_mem.Phys_mem.unsafe_write8 ram va v;
        let ppage = va lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:false ~width:Uop.W8 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 31 (* ST16P *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va <= h.h_ram_limit - 2 then begin
        Sb_mem.Phys_mem.unsafe_write16 ram va v;
        let ppage = va lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:false ~width:Uop.W16 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 32 (* ST32P *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      if va <= h.h_ram_limit - 4 then begin
        Sb_mem.Phys_mem.unsafe_write32 ram va v;
        let ppage = va lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:false ~width:Uop.W32 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 33 (* ST8V *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let base =
        Sb_mmu.Mtlb.probe h.h_dtlb_w ~vpn:(va lsr page_shift)
          ~asid:(Array.unsafe_get cop Cregs.asid)
          ~priv:(priv ())
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        let hoff = base lor (va land page_mask) in
        Sb_mem.Phys_mem.unsafe_write8 ram hoff v;
        let ppage = hoff lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:true ~width:Uop.W8 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 34 (* ST16V *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let off = va land page_mask in
      let base =
        if off <= page_size - 2 then
          Sb_mmu.Mtlb.probe h.h_dtlb_w ~vpn:(va lsr page_shift)
            ~asid:(Array.unsafe_get cop Cregs.asid)
            ~priv:(priv ())
        else -1
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        let hoff = base lor off in
        Sb_mem.Phys_mem.unsafe_write16 ram hoff v;
        let ppage = hoff lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:true ~width:Uop.W16 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 35 (* ST32V *) ->
      Perf.incr perf Perf.Stores;
      let v = rd a b (g (ip + 1)) in
      let va = (ld a b (g (ip + 2)) (g (ip + 3)) + g (ip + 4)) land u32_mask in
      let off = va land page_mask in
      let base =
        if off <= page_size - 4 then
          Sb_mmu.Mtlb.probe h.h_dtlb_w ~vpn:(va lsr page_shift)
            ~asid:(Array.unsafe_get cop Cregs.asid)
            ~priv:(priv ())
        else -1
      in
      if base >= 0 then begin
        Perf.incr perf Perf.Tlb_fast_hits;
        let hoff = base lor off in
        Sb_mem.Phys_mem.unsafe_write32 ram hoff v;
        let ppage = hoff lsr page_shift in
        if code_page_hit ppage then begin
          spill a b;
          h.h_store_smc ~ppage ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7))
        end;
        go (ip + 8) a b
      end
      else begin
        spill a b;
        h.h_store_slow ~mmu:true ~width:Uop.W32 ~user:false ~va ~v ~iva:(g (ip + 5))
          ~resume_va:(g (ip + 6)) ~iidx:(g (ip + 7));
        go (ip + 8) a b
      end
    | 36 (* STU *) ->
      Perf.incr perf Perf.Stores;
      Perf.incr perf Perf.User_accesses;
      let v = rd a b (g (ip + 3)) in
      let va = (ld a b (g (ip + 4)) (g (ip + 5)) + g (ip + 6)) land u32_mask in
      spill a b;
      h.h_store_slow
        ~mmu:(g (ip + 1) <> 0)
        ~width:(width_of_code (g (ip + 2)))
        ~user:true ~va ~v ~iva:(g (ip + 7)) ~resume_va:(g (ip + 8))
        ~iidx:(g (ip + 9));
      go (ip + 10) a b
    | 37 (* BD *) ->
      Perf.incr perf Perf.Branch_direct;
      Perf.incr perf Perf.Branch_taken;
      cpu.Cpu.pc <- g (ip + 1);
      wr (ip + 4) a b (g (ip + 2)) (g (ip + 3))
    | 38 (* BI *) ->
      Perf.incr perf Perf.Branch_indirect;
      Perf.incr perf Perf.Branch_taken;
      let l = g (ip + 1) and link = g (ip + 2) in
      (* the link write precedes the target read (closure parity: an
         indirect branch through its own link register jumps to the old
         value only because do_link runs first there too — it does not,
         so the updated value must be visible here as well) *)
      if link < 0 then begin
        cpu.Cpu.pc <- rd a b l;
        go (ip + 4) a b
      end
      else if link < 16 then begin
        Array.unsafe_set regs link (g (ip + 3));
        cpu.Cpu.pc <- rd a b l;
        go (ip + 4) a b
      end
      else if link = 16 then begin
        let a = g (ip + 3) in
        cpu.Cpu.pc <- rd a b l;
        go (ip + 4) a b
      end
      else begin
        let b = g (ip + 3) in
        cpu.Cpu.pc <- rd a b l;
        go (ip + 4) a b
      end
    | 39 (* BCD *) ->
      Perf.incr perf Perf.Branch_direct;
      if cond_true (g (ip + 1)) then begin
        Perf.incr perf Perf.Branch_taken;
        cpu.Cpu.pc <- g (ip + 2);
        wr (ip + 5) a b (g (ip + 3)) (g (ip + 4))
      end
      else go (ip + 5) a b
    | 40 (* BCI *) ->
      Perf.incr perf Perf.Branch_indirect;
      if cond_true (g (ip + 1)) then begin
        Perf.incr perf Perf.Branch_taken;
        let l = g (ip + 2) and link = g (ip + 3) in
        if link < 0 then begin
          cpu.Cpu.pc <- rd a b l;
          go (ip + 5) a b
        end
        else if link < 16 then begin
          Array.unsafe_set regs link (g (ip + 4));
          cpu.Cpu.pc <- rd a b l;
          go (ip + 5) a b
        end
        else if link = 16 then begin
          let a = g (ip + 4) in
          cpu.Cpu.pc <- rd a b l;
          go (ip + 5) a b
        end
        else begin
          let b = g (ip + 4) in
          cpu.Cpu.pc <- rd a b l;
          go (ip + 5) a b
        end
      end
      else go (ip + 5) a b
    | 41 (* BSEAM *) ->
      Perf.incr perf Perf.Branch_direct;
      Perf.incr perf Perf.Branch_taken;
      wr (ip + 3) a b (g (ip + 1)) (g (ip + 2))
    | 42 (* SVC *) ->
      spill a b;
      Guest.syscall ~return_addr:(g (ip + 2)) ~retired:(g (ip + 3))
    | 43 (* UNDEF *) ->
      spill a b;
      Guest.undefined ~iaddr:(g (ip + 1)) ~retired:(g (ip + 2))
    | 44 (* ERET *) ->
      Exn.eret cpu;
      go (ip + 1) a b
    | 45 (* COPRD *) ->
      Perf.incr perf Perf.Cop_reads;
      wr (ip + 3) a b (g (ip + 1)) (Array.unsafe_get cop (g (ip + 2)))
    | 46 (* COPWR *) ->
      let value = ld a b (g (ip + 2)) (g (ip + 3)) in
      spill a b;
      h.h_cop_write ~creg:(g (ip + 1)) ~value ~iva:(g (ip + 4))
        ~iidx:(g (ip + 5));
      go (ip + 6) a b
    | 47 (* TLBIP *) ->
      h.h_tlb_inv_page ~va:(rd a b (g (ip + 1)));
      go (ip + 2) a b
    | 48 (* TLBIA *) ->
      h.h_tlb_inv_all ();
      go (ip + 1) a b
    | 49 (* WFI *) ->
      spill a b;
      h.h_wfi ~iidx:(g (ip + 1));
      go (ip + 2) a b
    | 50 (* HALT *) ->
      spill a b;
      Guest.halt ~retired:(g (ip + 1))
    | 51 (* ADDIP *) ->
      let d = g (ip + 1) in
      Array.unsafe_set regs d
        ((Array.unsafe_get regs d + g (ip + 2)) land u32_mask);
      go (ip + 3) a b
    | 52 (* ADDIA *) -> go (ip + 2) ((a + g (ip + 1)) land u32_mask) b
    | 53 (* ADDIB *) -> go (ip + 2) a ((b + g (ip + 1)) land u32_mask)
    | 54 (* BD0 *) ->
      Perf.incr perf Perf.Branch_direct;
      Perf.incr perf Perf.Branch_taken;
      cpu.Cpu.pc <- g (ip + 1);
      go (ip + 3) a b
    | 55 (* BSEAM0 *) ->
      Perf.incr perf Perf.Branch_direct;
      Perf.incr perf Perf.Branch_taken;
      go (ip + 1) a b
    | _ -> assert false
  and wr ip a b d v =
    if d < 0 then go ip a b
    else if d < 16 then begin
      Array.unsafe_set regs d v;
      go ip a b
    end
    else if d = 16 then go ip v b
    else go ip a v
  in
  fun () ->
    go 0
      (if ra >= 0 then Array.unsafe_get regs ra else 0)
      (if rb >= 0 then Array.unsafe_get regs rb else 0)

(* ---------------- semantic model for the translation validator --------- *)

(* Decode an opstream back into the micro-op list each instruction
   implements, for symbolic comparison against the reference semantics.
   Redundant inline operands (instruction VA, resume VA, return address,
   retirement index) are re-derived from [meta] and checked; any mismatch
   decodes as [Uop.Undef], poisoning the instruction so the validator
   reports the broken emitter rather than silently trusting the stream. *)
let model ~mmu (p : program) =
  let code = p.code in
  let unloc l = if l = 16 then p.ra else if l = 17 then p.rb else l in
  let operand k v = if k = 0 then Uop.Imm v else Uop.Reg (unloc v) in
  let code_len = Array.length code in
  List.init p.p_insns (fun i ->
      let off, va, len = p.meta.(i) in
      let stop =
        if i + 1 < p.p_insns then (fun (o, _, _) -> o) p.meta.(i + 1)
        else code_len - 1 (* the trailing END *)
      in
      let poisoned = ref false in
      let check cond = if not cond then poisoned := true in
      let alu2 op ip d kn vn km vm =
        ( Uop.Alu
            {
              op;
              rd = Some (unloc d);
              rn = operand kn vn;
              rm = operand km vm;
              set_flags = false;
            },
          ip )
      in
      let rec walk acc ip =
        if ip >= stop then List.rev acc
        else
          let uop, next =
            match code.(ip) with
            | 1 -> alu2 Uop.Orr (ip + 3) (code.(ip + 1)) 0 0 0 (code.(ip + 2))
            | 2 -> alu2 Uop.Orr (ip + 3) (code.(ip + 1)) 1 (code.(ip + 2)) 0 0
            | 3 ->
              alu2 Uop.Add (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 4 ->
              alu2 Uop.Sub (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 5 ->
              alu2 Uop.And_ (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 6 ->
              alu2 Uop.Orr (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 7 ->
              alu2 Uop.Xor (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 8 ->
              alu2 Uop.Mul (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 9 ->
              alu2 Uop.Add (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 10 ->
              alu2 Uop.Sub (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 11 ->
              alu2 Uop.And_ (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 12 ->
              alu2 Uop.Orr (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 13 ->
              alu2 Uop.Xor (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 14 ->
              alu2 Uop.Mul (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 1
                (code.(ip + 3))
            | 15 ->
              check (code.(ip + 3) >= 0 && code.(ip + 3) < 32);
              alu2 Uop.Lsl (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 16 ->
              check (code.(ip + 3) >= 0 && code.(ip + 3) < 32);
              alu2 Uop.Lsr (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 17 ->
              check (code.(ip + 3) >= 0 && code.(ip + 3) <= 31);
              alu2 Uop.Asr (ip + 4) (code.(ip + 1)) 1 (code.(ip + 2)) 0
                (code.(ip + 3))
            | 18 ->
              ( Uop.Alu
                  {
                    op = Uop.Lsl;
                    rd = Some (unloc (code.(ip + 1)));
                    rn = operand (code.(ip + 2)) (code.(ip + 3));
                    rm = Uop.Reg (unloc (code.(ip + 4)));
                    set_flags = false;
                  },
                ip + 5 )
            | 19 ->
              ( Uop.Alu
                  {
                    op = Uop.Lsr;
                    rd = Some (unloc (code.(ip + 1)));
                    rn = operand (code.(ip + 2)) (code.(ip + 3));
                    rm = Uop.Reg (unloc (code.(ip + 4)));
                    set_flags = false;
                  },
                ip + 5 )
            | 20 ->
              ( Uop.Alu
                  {
                    op = Uop.Asr;
                    rd = Some (unloc (code.(ip + 1)));
                    rn = operand (code.(ip + 2)) (code.(ip + 3));
                    rm = Uop.Reg (unloc (code.(ip + 4)));
                    set_flags = false;
                  },
                ip + 5 )
            | 21 ->
              ( Uop.Alu
                  {
                    op = alu_of_code code.(ip + 1);
                    rd = Some (unloc (code.(ip + 2)));
                    rn = operand (code.(ip + 3)) (code.(ip + 4));
                    rm = operand (code.(ip + 5)) (code.(ip + 6));
                    set_flags = false;
                  },
                ip + 7 )
            | 22 ->
              ( Uop.Alu
                  {
                    op = alu_of_code code.(ip + 1);
                    rd =
                      (if code.(ip + 2) = 0 then None
                       else Some (unloc (code.(ip + 3))));
                    rn = operand (code.(ip + 4)) (code.(ip + 5));
                    rm = operand (code.(ip + 6)) (code.(ip + 7));
                    set_flags = true;
                  },
                ip + 8 )
            | (23 | 24 | 25 | 26 | 27 | 28) as opc ->
              let width =
                match opc with
                | 23 | 26 -> Uop.W8
                | 24 | 27 -> Uop.W16
                | _ -> Uop.W32
              in
              check (mmu = (opc >= 26));
              check (code.(ip + 5) = va && code.(ip + 6) = i);
              ( Uop.Load
                  {
                    width;
                    rd = unloc (code.(ip + 1));
                    base = operand (code.(ip + 2)) (code.(ip + 3));
                    offset = code.(ip + 4);
                    user = false;
                  },
                ip + 7 )
            | 29 ->
              check (mmu = (code.(ip + 1) <> 0));
              check (code.(ip + 7) = va && code.(ip + 8) = i);
              ( Uop.Load
                  {
                    width = width_of_code code.(ip + 2);
                    rd = unloc (code.(ip + 3));
                    base = operand (code.(ip + 4)) (code.(ip + 5));
                    offset = code.(ip + 6);
                    user = true;
                  },
                ip + 9 )
            | (30 | 31 | 32 | 33 | 34 | 35) as opc ->
              let width =
                match opc with
                | 30 | 33 -> Uop.W8
                | 31 | 34 -> Uop.W16
                | _ -> Uop.W32
              in
              check (mmu = (opc >= 33));
              check
                (code.(ip + 5) = va
                && code.(ip + 6) = va + len
                && code.(ip + 7) = i);
              ( Uop.Store
                  {
                    width;
                    rs = unloc (code.(ip + 1));
                    base = operand (code.(ip + 2)) (code.(ip + 3));
                    offset = code.(ip + 4);
                    user = false;
                  },
                ip + 8 )
            | 36 ->
              check (mmu = (code.(ip + 1) <> 0));
              check
                (code.(ip + 7) = va
                && code.(ip + 8) = va + len
                && code.(ip + 9) = i);
              ( Uop.Store
                  {
                    width = width_of_code code.(ip + 2);
                    rs = unloc (code.(ip + 3));
                    base = operand (code.(ip + 4)) (code.(ip + 5));
                    offset = code.(ip + 6);
                    user = true;
                  },
                ip + 10 )
            | 37 ->
              check (code.(ip + 3) = (va + len) land u32_mask);
              ( Uop.Branch
                  {
                    cond = Uop.Always;
                    target = Uop.Direct code.(ip + 1);
                    link =
                      (if code.(ip + 2) < 0 then None
                       else Some (unloc (code.(ip + 2))));
                  },
                ip + 4 )
            | 38 ->
              check (code.(ip + 3) = (va + len) land u32_mask);
              ( Uop.Branch
                  {
                    cond = Uop.Always;
                    target = Uop.Indirect (unloc (code.(ip + 1)));
                    link =
                      (if code.(ip + 2) < 0 then None
                       else Some (unloc (code.(ip + 2))));
                  },
                ip + 4 )
            | 39 ->
              check (code.(ip + 4) = (va + len) land u32_mask);
              ( Uop.Branch
                  {
                    cond = cond_of_code code.(ip + 1);
                    target = Uop.Direct code.(ip + 2);
                    link =
                      (if code.(ip + 3) < 0 then None
                       else Some (unloc (code.(ip + 3))));
                  },
                ip + 5 )
            | 40 ->
              check (code.(ip + 4) = (va + len) land u32_mask);
              ( Uop.Branch
                  {
                    cond = cond_of_code code.(ip + 1);
                    target = Uop.Indirect (unloc (code.(ip + 2)));
                    link =
                      (if code.(ip + 3) < 0 then None
                       else Some (unloc (code.(ip + 3))));
                  },
                ip + 5 )
            | 41 ->
              (* elided seam branch: never emitted for the programs the
                 validator compiles (blocks, elide off), so seeing one here
                 is itself an emitter bug *)
              check false;
              (Uop.Undef, ip + 3)
            | 42 ->
              check (code.(ip + 2) = (va + len) land u32_mask && code.(ip + 3) = i);
              (Uop.Svc code.(ip + 1), ip + 4)
            | 43 ->
              check (code.(ip + 1) = va && code.(ip + 2) = i);
              (Uop.Undef, ip + 3)
            | 44 -> (Uop.Eret, ip + 1)
            | 45 ->
              check (code.(ip + 2) >= 0 && code.(ip + 2) < Cregs.count);
              (Uop.Cop_read { rd = unloc (code.(ip + 1)); creg = code.(ip + 2) }, ip + 3)
            | 46 ->
              check (code.(ip + 1) >= 0 && code.(ip + 1) < Cregs.count);
              check (code.(ip + 4) = va && code.(ip + 5) = i);
              ( Uop.Cop_write
                  {
                    creg = code.(ip + 1);
                    src = operand (code.(ip + 2)) (code.(ip + 3));
                  },
                ip + 6 )
            | 47 -> (Uop.Tlb_inv_page (unloc (code.(ip + 1))), ip + 2)
            | 48 -> (Uop.Tlb_inv_all, ip + 1)
            | 49 ->
              check (code.(ip + 1) = i);
              (Uop.Wfi, ip + 2)
            | 50 ->
              check (code.(ip + 1) = i);
              (Uop.Halt, ip + 2)
            | 51 ->
              check (code.(ip + 1) >= 0 && code.(ip + 1) < 16);
              alu2 Uop.Add (ip + 3) (code.(ip + 1)) 1 (code.(ip + 1)) 0
                (code.(ip + 2))
            | 52 ->
              check (p.ra >= 0);
              alu2 Uop.Add (ip + 2) 16 1 16 0 (code.(ip + 1))
            | 53 ->
              check (p.rb >= 0);
              alu2 Uop.Add (ip + 2) 17 1 17 0 (code.(ip + 1))
            | 54 ->
              check (code.(ip + 2) = (va + len) land u32_mask);
              ( Uop.Branch
                  {
                    cond = Uop.Always;
                    target = Uop.Direct code.(ip + 1);
                    link = None;
                  },
                ip + 3 )
            | 55 ->
              (* linkless elided seam: like BSEAM, never reaches the
                 validator (blocks compile with elide off) *)
              check false;
              (Uop.Undef, ip + 1)
            | _ ->
              check false;
              (Uop.Undef, stop)
          in
          walk (uop :: acc) next
      in
      let uops = walk [] off in
      let uops = if !poisoned then uops @ [ Uop.Undef ] else uops in
      (va, len, uops))
