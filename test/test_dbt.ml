(* Unit tests for DBT internals: IR optimiser, page cache, version table. *)

module Uop = Sb_isa.Uop
module Ir = Sb_dbt.Ir
module Pc = Sb_mmu.Page_cache

let mk_insn ?(va = 0x1000) ?(len = 4) uops = { Ir.va; len; uops }

let alu ?(flags = false) op rd rn rm =
  Uop.Alu { op; rd = Some rd; rn; rm; set_flags = flags }

(* ---------------- IR optimiser ---------------- *)

let test_const_prop_folds_movw_movt () =
  (* movw r1,#0xBEEF ; movt r1,#0xDEAD ; add r2, r1, #1 *)
  let ir =
    [|
      mk_insn [ alu Uop.Orr 1 (Uop.Imm 0) (Uop.Imm 0xBEEF) ];
      mk_insn
        [
          alu Uop.And_ 1 (Uop.Reg 1) (Uop.Imm 0xFFFF);
          alu Uop.Orr 1 (Uop.Reg 1) (Uop.Imm (0xDEAD lsl 16));
        ];
      mk_insn [ alu Uop.Add 2 (Uop.Reg 1) (Uop.Imm 1) ];
    |]
  in
  Ir.const_prop ir;
  (match ir.(2).Ir.uops with
  | [ Uop.Alu { rn = Uop.Imm 0; rm = Uop.Imm v; op = Uop.Orr; _ } ] ->
    Alcotest.(check int) "folded through movw/movt" 0xDEADBEF0 v
  | [ u ] -> Alcotest.failf "unexpected uop %s" (Format.asprintf "%a" Uop.pp u)
  | _ -> Alcotest.fail "shape");
  (* the register writes to r1 remain architectural *)
  match ir.(0).Ir.uops with
  | [ Uop.Alu { rd = Some 1; _ } ] -> ()
  | _ -> Alcotest.fail "movw write must remain"

let test_const_prop_kills_on_load () =
  let ir =
    [|
      mk_insn [ alu Uop.Orr 1 (Uop.Imm 0) (Uop.Imm 42) ];
      mk_insn [ Uop.Load { width = Uop.W32; rd = 1; base = Uop.Reg 2; offset = 0; user = false } ];
      mk_insn [ alu Uop.Add 3 (Uop.Reg 1) (Uop.Imm 0) ];
    |]
  in
  Ir.const_prop ir;
  match ir.(2).Ir.uops with
  | [ Uop.Alu { rn = Uop.Reg 1; _ } ] -> ()
  | _ -> Alcotest.fail "constant must be killed by the load"

let test_const_prop_no_fold_when_flags () =
  let ir = [| mk_insn [ alu ~flags:true Uop.Sub 1 (Uop.Imm 5) (Uop.Imm 5) ] |] in
  Ir.const_prop ir;
  match ir.(0).Ir.uops with
  | [ Uop.Alu { set_flags = true; op = Uop.Sub; _ } ] -> ()
  | _ -> Alcotest.fail "flag-setting op must not fold"

let test_const_prop_link_register_known () =
  let ir =
    [|
      mk_insn ~va:0x2000 ~len:4
        [ Uop.Branch { cond = Uop.Always; target = Uop.Direct 0x3000; link = Some 14 } ];
    |]
  in
  (* a later block-internal use cannot exist after a branch, but the
     propagation itself must record lr = 0x2004 without raising *)
  Ir.const_prop ir;
  ()

let test_nop_elim_keeps_slot () =
  let ir = [| mk_insn [ Uop.Nop ]; mk_insn [ alu Uop.Add 1 (Uop.Reg 1) (Uop.Imm 1) ] |] in
  Ir.nop_elim ir;
  Alcotest.(check int) "slots preserved" 2 (Array.length ir);
  Alcotest.(check int) "nop removed" 0 (List.length ir.(0).Ir.uops)

let test_peephole_identities () =
  let ir =
    [|
      mk_insn [ alu Uop.Add 1 (Uop.Reg 1) (Uop.Imm 0) ];
      mk_insn [ alu Uop.Add 2 (Uop.Reg 1) (Uop.Imm 0) ];
      mk_insn [ alu Uop.Mul 3 (Uop.Reg 1) (Uop.Imm 1) ];
    |]
  in
  Ir.peephole ir;
  Alcotest.(check int) "add r1,r1,#0 dropped" 0 (List.length ir.(0).Ir.uops);
  (match ir.(1).Ir.uops with
  | [ Uop.Alu { op = Uop.Orr; rm = Uop.Imm 0; _ } ] -> ()
  | _ -> Alcotest.fail "add rd,rn,#0 becomes move");
  match ir.(2).Ir.uops with
  | [ Uop.Alu { op = Uop.Orr; rm = Uop.Imm 0; _ } ] -> ()
  | _ -> Alcotest.fail "mul by 1 becomes move"

let test_run_clamps_passes () =
  let ir = [| mk_insn [ Uop.Nop ] |] in
  Alcotest.(check int) "clamped" (List.length Ir.pass_names) (Ir.run ~passes:99 ir);
  Alcotest.(check int) "zero" 0 (Ir.run ~passes:0 ir)

(* Property: the optimiser preserves the meaning of straight-line ALU IR.
   A tiny reference evaluator executes the register-file semantics of an IR
   block; running any pass budget over the block must not change the final
   register file. *)
let eval_ir regs (ir : Ir.t) =
  let regs = Array.copy regs in
  Array.iter
    (fun (insn : Ir.insn) ->
      List.iter
        (fun uop ->
          match uop with
          | Uop.Nop -> ()
          | Uop.Alu { op; rd; rn; rm; set_flags = false } -> (
            let value = function
              | Uop.Reg r -> regs.(r)
              | Uop.Imm v -> v land 0xFFFF_FFFF
            in
            match rd with
            | Some rd -> regs.(rd) <- Sb_sim.Alu_eval.eval op (value rn) (value rm)
            | None -> ())
          | _ -> failwith "straight-line ALU only")
        insn.Ir.uops)
    ir;
  regs

let gen_alu_ir =
  let open QCheck.Gen in
  let op =
    oneofl
      [ Uop.Add; Uop.Sub; Uop.And_; Uop.Orr; Uop.Xor; Uop.Mul; Uop.Lsl; Uop.Lsr ]
  in
  let operand =
    oneof [ map (fun r -> Uop.Reg r) (int_bound 7); map (fun v -> Uop.Imm v) (int_bound 0xFFFF) ]
  in
  let insn i =
    map3
      (fun op rd (rn, rm) ->
        {
          Ir.va = 0x1000 + (4 * i);
          len = 4;
          uops = [ Uop.Alu { op; rd = Some rd; rn; rm; set_flags = false } ];
        })
      op (int_bound 7) (pair operand operand)
  in
  sized (fun n ->
      let n = max 1 (n mod 24) in
      map Array.of_list (flatten_l (List.init n insn)))

let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimiser preserves straight-line semantics" ~count:300
    (QCheck.make gen_alu_ir)
    (fun ir ->
      let regs = Array.init 16 (fun i -> (i * 0x01010101) land 0xFFFF_FFFF) in
      let copy_ir =
        Array.map (fun (i : Ir.insn) -> { i with Ir.uops = i.Ir.uops }) ir
      in
      let before = eval_ir regs ir in
      ignore (Ir.run ~passes:4 copy_ir);
      let after = eval_ir regs copy_ir in
      before = after)

(* ---------------- page cache ---------------- *)

let entry ?(asid = 0) vpn ppn = { Pc.vpn; ppn; ap = 0; xn = false; asid }

let test_page_cache_l1 () =
  let pc = Pc.create ~l1_entries:16 ~l2_entries:0 ~lazy_flush:false in
  Alcotest.(check bool) "empty" true (Pc.lookup_l1 pc ~vpn:3 ~asid:0 = None);
  Pc.insert pc (entry 3 7);
  (match Pc.lookup_l1 pc ~vpn:3 ~asid:0 with
  | Some e -> Alcotest.(check int) "ppn" 7 e.Pc.ppn
  | None -> Alcotest.fail "hit expected");
  Alcotest.(check bool) "aliasing vpn misses" true (Pc.lookup_l1 pc ~vpn:19 ~asid:0 = None)

let test_page_cache_l2_promotion () =
  let pc = Pc.create ~l1_entries:4 ~l2_entries:64 ~lazy_flush:false in
  Pc.insert pc (entry 1 10);
  (* conflicting insert demotes vpn 1 to L2 *)
  Pc.insert pc (entry 5 20);
  Alcotest.(check bool) "evicted from L1" true (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None);
  (match Pc.lookup_l2 pc ~vpn:1 ~asid:0 with
  | Some e -> Alcotest.(check int) "found in L2" 10 e.Pc.ppn
  | None -> Alcotest.fail "L2 victim expected");
  (* lookup_l2 promotes back to L1 *)
  Alcotest.(check bool) "promoted" true (Pc.lookup_l1 pc ~vpn:1 ~asid:0 <> None)

(* an eager and a lazy flush both empty every entry of both levels, and an
   entry filled after a flush hits *)
let test_page_cache_flush_modes () =
  List.iter
    (fun lazy_flush ->
      let mode = if lazy_flush then "lazy" else "eager" in
      let check what = Alcotest.(check bool) (mode ^ " " ^ what) true in
      let pc = Pc.create ~l1_entries:8 ~l2_entries:32 ~lazy_flush in
      for vpn = 0 to 7 do
        Pc.insert pc (entry vpn vpn)
      done;
      (* conflicts demote vpns 0-7 into L2 *)
      for vpn = 8 to 15 do
        Pc.insert pc (entry vpn vpn)
      done;
      Pc.flush pc;
      for vpn = 0 to 15 do
        check (Printf.sprintf "vpn %d gone" vpn)
          (Pc.lookup_l1 pc ~vpn ~asid:0 = None && Pc.lookup_l2 pc ~vpn ~asid:0 = None)
      done;
      Pc.insert pc (entry 2 2);
      check "refill hits" (Pc.lookup_l1 pc ~vpn:2 ~asid:0 <> None))
    [ false; true ]

(* lazy flushing is generation bumping: stale entries in both levels become
   invisible without being cleared, every flush opens a fresh generation,
   and promotion never resurrects a stale generation *)
let test_page_cache_lazy_generations () =
  let pc = Pc.create ~l1_entries:4 ~l2_entries:64 ~lazy_flush:true in
  (* vpn 1 demoted to L2 by a conflicting insert, then the flush strands it *)
  Pc.insert pc (entry 1 10);
  Pc.insert pc (entry 5 20);
  (match Pc.lookup_l2 pc ~vpn:1 ~asid:0 with
  | Some _ -> ()
  | None -> Alcotest.fail "victim expected in L2 before flush");
  Pc.flush pc;
  Alcotest.(check bool) "stale L1 invisible" true (Pc.lookup_l1 pc ~vpn:5 ~asid:0 = None);
  Alcotest.(check bool) "stale L2 not promoted" true
    (Pc.lookup_l2 pc ~vpn:1 ~asid:0 = None);
  Alcotest.(check bool) "and not in L1 either" true
    (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None);
  (* entries of the new generation behave normally, including demotion and
     promotion within that generation *)
  Pc.insert pc (entry 1 11);
  Pc.insert pc (entry 5 21);
  Alcotest.(check bool) "new gen L1 miss after conflict" true
    (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None);
  (match Pc.lookup_l2 pc ~vpn:1 ~asid:0 with
  | Some e -> Alcotest.(check int) "new gen promoted value" 11 e.Pc.ppn
  | None -> Alcotest.fail "new-generation victim expected in L2");
  Alcotest.(check bool) "promoted to L1" true (Pc.lookup_l1 pc ~vpn:1 ~asid:0 <> None);
  (* a second flush strands the new generation too *)
  Pc.flush pc;
  Alcotest.(check bool) "second flush hides" true
    (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None && Pc.lookup_l2 pc ~vpn:1 ~asid:0 = None)

let test_page_cache_l2_disabled () =
  let pc = Pc.create ~l1_entries:4 ~l2_entries:0 ~lazy_flush:false in
  Pc.insert pc (entry 1 10);
  (* conflicting insert has nowhere to demote to: the victim is just lost *)
  Pc.insert pc (entry 5 20);
  Alcotest.(check bool) "no l2" true (Pc.lookup_l2 pc ~vpn:1 ~asid:0 = None);
  Alcotest.(check bool) "victim gone" true (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None);
  (match Pc.lookup_l1 pc ~vpn:5 ~asid:0 with
  | Some e -> Alcotest.(check int) "winner present" 20 e.Pc.ppn
  | None -> Alcotest.fail "winner expected")

let test_page_cache_asid_tagging () =
  let pc = Pc.create ~l1_entries:16 ~l2_entries:0 ~lazy_flush:false in
  Pc.insert pc (entry ~asid:1 7 100);
  Pc.insert pc (entry ~asid:2 7 200);
  (* both address spaces' translations coexist *)
  (match Pc.lookup_l1 pc ~vpn:7 ~asid:1 with
  | Some e -> Alcotest.(check int) "asid 1" 100 e.Pc.ppn
  | None -> Alcotest.fail "asid 1 entry lost");
  (match Pc.lookup_l1 pc ~vpn:7 ~asid:2 with
  | Some e -> Alcotest.(check int) "asid 2" 200 e.Pc.ppn
  | None -> Alcotest.fail "asid 2 entry lost");
  Alcotest.(check bool) "other asid misses" true (Pc.lookup_l1 pc ~vpn:7 ~asid:3 = None);
  (* ASID-qualified invalidation *)
  Pc.invalidate_page pc ~vpn:7 ~asid:1;
  Alcotest.(check bool) "asid1 gone" true (Pc.lookup_l1 pc ~vpn:7 ~asid:1 = None);
  Alcotest.(check bool) "asid2 kept" true (Pc.lookup_l1 pc ~vpn:7 ~asid:2 <> None)

let test_page_cache_invalidate_page () =
  let pc = Pc.create ~l1_entries:8 ~l2_entries:8 ~lazy_flush:false in
  Pc.insert pc (entry 1 1);
  Pc.insert pc (entry 2 2);
  Pc.invalidate_page pc ~vpn:1 ~asid:0;
  Alcotest.(check bool) "gone" true (Pc.lookup_l1 pc ~vpn:1 ~asid:0 = None);
  Alcotest.(check bool) "kept" true (Pc.lookup_l1 pc ~vpn:2 ~asid:0 <> None)

(* ---------------- version table ---------------- *)

let test_version_table () =
  Alcotest.(check int) "twenty-two releases" 22 (List.length Sb_dbt.Version.all);
  Alcotest.(check string) "baseline first" Sb_dbt.Version.baseline_name
    (fst (List.hd Sb_dbt.Version.all));
  Alcotest.(check bool) "find known" true (Sb_dbt.Version.find "v2.0.0" <> None);
  Alcotest.(check bool) "find unknown" true (Sb_dbt.Version.find "v9.9.9" = None);
  (* documented trajectory: the data-fault fast path appears at 2.5.0-rc0 *)
  let cfg v = Option.get (Sb_dbt.Version.find v) in
  Alcotest.(check bool) "no fast path before" false
    (cfg "v2.4.1").Sb_dbt.Config.data_fault_fast_path;
  Alcotest.(check bool) "fast path at rc0" true
    (cfg "v2.5.0-rc0").Sb_dbt.Config.data_fault_fast_path;
  (* optimiser budget rises at 2.0.0 *)
  Alcotest.(check bool) "tcg optimiser" true
    ((cfg "v2.0.0").Sb_dbt.Config.opt_passes > (cfg "v1.7.0").Sb_dbt.Config.opt_passes);
  (* dispatch-path verification work only grows *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      a.Sb_dbt.Config.chain_verify_work <= b.Sb_dbt.Config.chain_verify_work
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "chain verify monotone" true (monotone Sb_dbt.Version.all);
  (* hot-trace superblocks appear at 2.6.0 and nowhere before *)
  Alcotest.(check int) "no traces before" 0
    (cfg "v2.5.0-rc2").Sb_dbt.Config.trace_threshold;
  Alcotest.(check bool) "traces at 2.6.0" true
    ((cfg "v2.6.0").Sb_dbt.Config.trace_threshold > 0
    && (cfg "v2.6.0").Sb_dbt.Config.max_trace_blocks >= 2);
  (* the contemporary default enables traces like the newest entry *)
  Alcotest.(check int) "default traces on"
    (cfg "v2.6.0").Sb_dbt.Config.trace_threshold
    Sb_dbt.Config.default.Sb_dbt.Config.trace_threshold;
  (* threaded code with register caching appears at 2.7.0 and nowhere
     before; the contemporary default matches *)
  Alcotest.(check bool) "no threaded code before" false
    (cfg "v2.6.0").Sb_dbt.Config.threaded;
  Alcotest.(check bool) "no reg cache before" false
    (cfg "v2.6.0").Sb_dbt.Config.reg_cache;
  Alcotest.(check bool) "threaded at 2.7.0" true
    ((cfg "v2.7.0").Sb_dbt.Config.threaded
    && (cfg "v2.7.0").Sb_dbt.Config.reg_cache);
  Alcotest.(check bool) "default is threaded" true
    (Sb_dbt.Config.default.Sb_dbt.Config.threaded
    && Sb_dbt.Config.default.Sb_dbt.Config.reg_cache);
  Alcotest.(check bool) "baseline is not" false
    Sb_dbt.Config.baseline.Sb_dbt.Config.threaded

(* Optimised and unoptimised DBT engines must agree architecturally: run a
   program that the optimiser rewrites heavily under both pass budgets. *)
module Dbt_opt = Sb_dbt.Dbt.Make (Sb_arch_sba.Arch)

module Dbt_noopt =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config = { Sb_dbt.Config.baseline with Sb_dbt.Config.opt_passes = 0 }
    end)

let test_opt_equivalence () =
  let module SI = Sb_arch_sba.Insn in
  let open Sb_asm.Assembler in
  let insns l = List.map (fun i -> Insn i) l in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ insns
          (SI.li 1 0xDEADBEEF
          @ SI.li 2 0x12345678
          @ [
              SI.Add (3, 1, SI.Rm 2);
              SI.Mul (4, 3, 2);
              SI.Add (5, 4, SI.Imm 0);
              SI.Xor (6, 5, 1);
              SI.Lsr (7, 6, SI.Imm 3);
              SI.Halt;
            ]))
  in
  let run engine =
    let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
    Sb_sim.Machine.load_program machine program;
    ignore (Sb_sim.Engine.run engine ~max_insns:1000 machine);
    Array.sub machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.regs 0 8
  in
  Alcotest.(check (array int)) "same registers" (run (module Dbt_noopt)) (run (module Dbt_opt))

(* ---------------- hot-trace superblocks ---------------- *)

module Dbt_traces =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config =
        {
          Sb_dbt.Config.default with
          Sb_dbt.Config.trace_threshold = 4;
          max_trace_blocks = 8;
        }
    end)

module Dbt_notrace =
  Sb_dbt.Dbt.Make_configured
    (Sb_arch_sba.Arch)
    (struct
      let config = { Sb_dbt.Config.default with Sb_dbt.Config.trace_threshold = 0 }
    end)

module Interp_sba = Sb_interp.Interp.Make (Sb_arch_sba.Arch)

let run_program engine program =
  let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
  Sb_sim.Machine.load_program machine program;
  let result = Sb_sim.Engine.run engine ~max_insns:2_000_000 machine in
  (result, Array.sub machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.regs 0 14)

(* a counted loop whose body spans three blocks linked by direct branches:
   the canonical trace-formation shape *)
let trace_loop_program iters =
  let module SI = Sb_arch_sba.Insn in
  let open Sb_asm.Assembler in
  let insns l = List.map (fun i -> Insn i) l in
  SI.Asm.assemble ~base:0 ~entry:"start"
    ([ Label "start" ]
    @ insns (SI.li 1 0 @ SI.li 2 iters)
    @ [ Label "loop" ]
    @ insns [ SI.Add (1, 1, SI.Imm 3); SI.B "b2" ]
    @ [ Label "b2" ]
    @ insns [ SI.Add (1, 1, SI.Imm 5); SI.B "b3" ]
    @ [ Label "b3" ]
    @ insns
        [
          SI.Sub (2, 2, SI.Imm 1);
          SI.Cmp (2, SI.Imm 0);
          SI.Bcc (Sb_isa.Uop.Ne, "loop");
          SI.Halt;
        ])

let counter (r : Sb_sim.Run_result.t) c = Sb_sim.Perf.get r.Sb_sim.Run_result.perf c

let test_trace_equivalence_and_counters () =
  let program = trace_loop_program 200 in
  let rt, regs_t = run_program (module Dbt_traces) program in
  let rn, regs_n = run_program (module Dbt_notrace) program in
  let ri, regs_i = run_program (module Interp_sba) program in
  Alcotest.(check (array int)) "traces vs no traces" regs_n regs_t;
  Alcotest.(check (array int)) "traces vs interpreter" regs_i regs_t;
  Alcotest.(check int) "insns identical (dbt)" (counter rn Sb_sim.Perf.Insns)
    (counter rt Sb_sim.Perf.Insns);
  Alcotest.(check int) "insns identical (interp)" (counter ri Sb_sim.Perf.Insns)
    (counter rt Sb_sim.Perf.Insns);
  (* architectural branch counters survive seam elision *)
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Sb_sim.Perf.to_string c)
        (counter rn c) (counter rt c))
    [ Sb_sim.Perf.Branch_direct; Sb_sim.Perf.Branch_taken; Sb_sim.Perf.Branch_indirect ];
  (* the trace machinery actually engaged *)
  Alcotest.(check bool) "traces formed" true (counter rt Sb_sim.Perf.Traces_formed >= 1);
  Alcotest.(check bool) "trace dispatches dominate" true
    (counter rt Sb_sim.Perf.Trace_dispatches > 100);
  (* the loop exit leaves through a conditional seam *)
  Alcotest.(check bool) "side exit at loop exit" true
    (counter rt Sb_sim.Perf.Trace_side_exits >= 1);
  (* and stayed entirely off with threshold 0 *)
  List.iter
    (fun c -> Alcotest.(check int) ("off: " ^ Sb_sim.Perf.to_string c) 0 (counter rn c))
    [
      Sb_sim.Perf.Traces_formed;
      Sb_sim.Perf.Trace_dispatches;
      Sb_sim.Perf.Trace_side_exits;
      Sb_sim.Perf.Trace_invalidations;
    ]

(* Self-modifying code must invalidate live traces: mid-loop, the guest
   stores over an instruction of a constituent block (rewriting the same
   word, so the architectural result is unchanged and any stale-trace reuse
   would be invisible to the registers — only the invalidation contract
   makes this pass deterministically). *)
let test_trace_smc_invalidation () =
  let module SI = Sb_arch_sba.Insn in
  let open Sb_asm.Assembler in
  let insns l = List.map (fun i -> Insn i) l in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start" ]
      @ insns (SI.li 1 0 @ SI.li 2 50 @ SI.la 4 "patch_target")
      @ insns [ SI.Ldr (5, 4, 0) ]
      @ [ Label "loop" ]
      @ insns [ SI.Add (1, 1, SI.Imm 3); SI.B "b2" ]
      @ [ Label "b2"; Label "patch_target" ]
      @ insns [ SI.Add (1, 1, SI.Imm 5); SI.B "b3" ]
      @ [ Label "b3" ]
      @ insns [ SI.Cmp (2, SI.Imm 10); SI.Bcc (Sb_isa.Uop.Ne, "skip") ]
      @ insns [ SI.Str (5, 4, 0) ]
      @ [ Label "skip" ]
      @ insns
          [
            SI.Sub (2, 2, SI.Imm 1);
            SI.Cmp (2, SI.Imm 0);
            SI.Bcc (Sb_isa.Uop.Ne, "loop");
            SI.Halt;
          ])
  in
  let rt, regs_t = run_program (module Dbt_traces) program in
  let rn, regs_n = run_program (module Dbt_notrace) program in
  let ri, regs_i = run_program (module Interp_sba) program in
  Alcotest.(check (array int)) "traces vs no traces" regs_n regs_t;
  Alcotest.(check (array int)) "traces vs interpreter" regs_i regs_t;
  Alcotest.(check int) "insns identical" (counter rn Sb_sim.Perf.Insns)
    (counter rt Sb_sim.Perf.Insns);
  Alcotest.(check int) "insns identical (interp)" (counter ri Sb_sim.Perf.Insns)
    (counter rt Sb_sim.Perf.Insns);
  Alcotest.(check bool) "SMC invalidated a trace" true
    (counter rt Sb_sim.Perf.Trace_invalidations >= 1);
  Alcotest.(check bool) "and traces re-formed after" true
    (counter rt Sb_sim.Perf.Traces_formed >= 2)

let () =
  Alcotest.run "sb_dbt"
    [
      ( "ir",
        [
          Alcotest.test_case "const prop folds" `Quick test_const_prop_folds_movw_movt;
          Alcotest.test_case "const prop kill" `Quick test_const_prop_kills_on_load;
          Alcotest.test_case "flags not folded" `Quick test_const_prop_no_fold_when_flags;
          Alcotest.test_case "link constant" `Quick test_const_prop_link_register_known;
          Alcotest.test_case "nop elim" `Quick test_nop_elim_keeps_slot;
          Alcotest.test_case "peephole" `Quick test_peephole_identities;
          Alcotest.test_case "pass clamp" `Quick test_run_clamps_passes;
          Alcotest.test_case "opt equivalence" `Quick test_opt_equivalence;
          QCheck_alcotest.to_alcotest prop_optimizer_preserves_semantics;
        ] );
      ( "page_cache",
        [
          Alcotest.test_case "l1" `Quick test_page_cache_l1;
          Alcotest.test_case "l2 promotion" `Quick test_page_cache_l2_promotion;
          Alcotest.test_case "flush modes" `Quick test_page_cache_flush_modes;
          Alcotest.test_case "lazy generations" `Quick test_page_cache_lazy_generations;
          Alcotest.test_case "l2 disabled" `Quick test_page_cache_l2_disabled;
          Alcotest.test_case "invalidate page" `Quick test_page_cache_invalidate_page;
          Alcotest.test_case "asid tagging" `Quick test_page_cache_asid_tagging;
        ] );
      ( "versions", [ Alcotest.test_case "table" `Quick test_version_table ] );
      ( "traces",
        [
          Alcotest.test_case "equivalence and counters" `Quick
            test_trace_equivalence_and_counters;
          Alcotest.test_case "smc invalidation" `Quick test_trace_smc_invalidation;
        ] );
    ]
