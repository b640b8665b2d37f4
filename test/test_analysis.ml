(* Tests for the static analysis library: one positive and one negative
   case per lint rule, the suite-wide cleanliness gate, and the DBT IR
   pass validator (accepts the real passes, flags a broken one). *)

module P = Simbench.Pasm
module Bench = Simbench.Bench
module Category = Simbench.Category
module Lint = Sb_analysis.Lint
module Ir_check = Sb_analysis.Ir_check
module Ir = Sb_dbt.Ir
module Uop = Sb_isa.Uop
open Simbench.Pasm

let rules fs = List.map (fun f -> f.Lint.rule) fs
let has rule fs = List.mem rule (rules fs)

let check_fires rule program =
  let fs = Lint.lint_program program in
  if not (has rule fs) then
    Alcotest.failf "expected %s, got: %s" rule
      (String.concat "; " (List.map Lint.render fs))

let check_clean program =
  match Lint.lint_program program with
  | [] -> ()
  | fs ->
    Alcotest.failf "expected no findings, got: %s"
      (String.concat "; " (List.map Lint.render fs))

(* ---------------- whole-program rules ---------------- *)

let test_clean_program () =
  check_clean
    [
      Li (v0, 3);
      L "loop";
      Alu (Sb_isa.Uop.Sub, v0, v0, I 1);
      Cmp (v0, I 0);
      Br (Sb_isa.Uop.Ne, "loop");
      Halt;
    ]

let test_undefined_label () = check_fires "undefined-label" [ Jmp "nowhere" ]

let test_duplicate_label () =
  check_fires "duplicate-label" [ L "a"; Halt; L "a"; Halt ]

let test_unreachable_code () =
  check_fires "unreachable-code" [ Halt; Li (v0, 1); Halt ]

let test_fall_off_end () = check_fires "fall-off-end" [ Li (v0, 1) ]

let test_fall_into_data () =
  check_fires "fall-into-data" [ Li (v0, 1); L "d"; Raw_word 7 ]

let test_use_before_def () =
  check_fires "use-before-def" [ Alu (Sb_isa.Uop.Add, v0, v1, I 1); Halt ]

let test_roots_assume_defined () =
  (* the same op is fine when its block is a caller-supplied root: hardware
     entry points get all registers from the faulting context *)
  match
    Lint.lint_program ~roots:[ "vec" ]
      [ Halt; L "vec"; Alu (Sb_isa.Uop.Add, v0, v1, I 1); Halt ]
  with
  | fs when has "use-before-def" fs -> Alcotest.fail "root not assumed defined"
  | _ -> ()

let test_lr_clobber () =
  check_fires "lr-clobber"
    [ Call "f"; Halt; L "f"; Call "g"; Ret; L "g"; Ret ]

let test_lr_saved_ok () =
  (* the classic prologue/epilogue makes the nested call safe *)
  check_clean
    [
      Li (sp, 0x8000);
      Call "f";
      Halt;
      L "f";
      Alu (Sb_isa.Uop.Sub, sp, sp, I 4);
      Store (W32, lr, sp, 0);
      Call "g";
      Load (W32, lr, sp, 0);
      Alu (Sb_isa.Uop.Add, sp, sp, I 4);
      Ret;
      L "g";
      Ret;
    ]

let test_unused_label () =
  check_fires "unused-label" [ Jmp "a"; L "a"; L "b"; Halt ]

(* ---------------- phase-scoped convention rules ---------------- *)

let support = Simbench.Engines.support Sb_isa.Arch_sig.Sba

let mk_bench ?(category = Category.Memory_system) ?(functions = []) kernel =
  {
    Bench.name = "crafted";
    category;
    description = "crafted negative-test bench";
    default_iters = 1;
    ops_per_iter = 1;
    platform_specific = false;
    body =
      (fun ~support:_ ~platform:_ ->
        { Bench.empty_body with kernel; functions });
  }

let bench_fires ?category rule kernel =
  let fs = Lint.lint_bench ~support (mk_bench ?category kernel) in
  if not (has rule fs) then
    Alcotest.failf "expected %s, got: %s" rule
      (String.concat "; " (List.map Lint.render fs))

let test_v4_clobber () = bench_fires "v4-clobber" [ Li (v4, 0) ]

let test_v3_across_fault () =
  bench_fires "v3-across-fault"
    [ Li (v3, 1); Li (v1, 0x9000); Load (W32, v0, v1, 0); Mov (v0, v3) ]

let test_v3_severity_by_category () =
  let kernel =
    [ Li (v3, 1); Li (v1, 0x9000); Load (W32, v0, v1, 0); Mov (v0, v3) ]
  in
  let sev category =
    let fs = Lint.lint_bench ~support (mk_bench ~category kernel) in
    match List.filter (fun f -> f.Lint.rule = "v3-across-fault") fs with
    | f :: _ -> f.Lint.severity
    | [] -> Alcotest.fail "v3-across-fault did not fire"
  in
  Alcotest.(check bool)
    "error for suite categories" true
    (sev Category.Memory_system = Lint.Error);
  Alcotest.(check bool)
    "advisory for applications" true
    (sev Category.Application = Lint.Warning)

let test_sp_imbalance () =
  bench_fires "sp-imbalance" [ Alu (Sb_isa.Uop.Sub, sp, sp, I 8) ]

let test_sp_balanced_ok () =
  let fs =
    Lint.lint_bench ~support
      (mk_bench
         [
           Li (v1, 7);
           Alu (Sb_isa.Uop.Sub, sp, sp, I 4);
           Store (W32, v1, sp, 0);
           Load (W32, v1, sp, 0);
           Alu (Sb_isa.Uop.Add, sp, sp, I 4);
         ])
  in
  if has "sp-imbalance" fs then Alcotest.fail "balanced push/pop flagged"

(* ---------------- suite gate ---------------- *)

let test_suite_is_clean () =
  List.iter
    (fun (bench, arch, findings) ->
      match findings with
      | [] -> ()
      | fs ->
        Alcotest.failf "%s [%s]: %s" bench arch
          (String.concat "; " (List.map Lint.render fs)))
    (Lint.lint_suite ())

let test_workloads_have_no_errors () =
  let benches =
    List.filter
      (fun b -> b.Simbench.Bench.category = Simbench.Category.Application)
      Sb_workloads.Target.all
  in
  List.iter
    (fun (bench, arch, findings) ->
      match Lint.errors findings with
      | [] -> ()
      | fs ->
        Alcotest.failf "%s [%s]: %s" bench arch
          (String.concat "; " (List.map Lint.render fs)))
    (Lint.lint_suite ~benches ())

(* ---------------- IR pass validator ---------------- *)

let mk_insn ?(va = 0x1000) ?(len = 4) uops = { Ir.va; len; uops }

let alu ?(flags = false) op rd rn rm =
  Uop.Alu { op; rd = Some rd; rn; rm; set_flags = flags }

(* A block exercising the shapes the real passes rewrite: a movw-style
   constant, a foldable add, a flag-setting compare, memory traffic and a
   conditional branch. *)
let sample_block () =
  [|
    mk_insn ~va:0x1000 [ alu Uop.Orr 1 (Uop.Imm 0) (Uop.Imm 0xBEEF) ];
    mk_insn ~va:0x1004 [ alu Uop.Add 2 (Uop.Reg 1) (Uop.Imm 0) ];
    mk_insn ~va:0x1008 [ alu ~flags:true Uop.Sub 3 (Uop.Reg 2) (Uop.Reg 2) ];
    mk_insn ~va:0x100C
      [
        Uop.Load
          { width = Uop.W32; rd = 4; base = Uop.Reg 5; offset = 8; user = false };
      ];
    mk_insn ~va:0x1010
      [
        Uop.Store
          { width = Uop.W32; rs = 4; base = Uop.Reg 5; offset = 12; user = false };
      ];
    mk_insn ~va:0x1014
      [ Uop.Branch { cond = Uop.Eq; target = Uop.Direct 0x2000; link = None } ];
  |]

let real_passes =
  [
    ("const_prop", Ir.const_prop);
    ("nop_elim", Ir.nop_elim);
    ("peephole", Ir.peephole);
  ]

let test_validator_accepts_real_passes () =
  List.iter
    (fun (name, pass) ->
      let before = sample_block () in
      let after = Ir.copy before in
      pass after;
      match Ir_check.check ~pass:name ~before ~after () with
      | None -> ()
      | Some v -> Alcotest.failf "%s rejected: %s" name (Ir_check.message v))
    real_passes

(* A stitched two-block superblock shaped exactly as hot-trace formation
   builds it (see lib/dbt/dbt.ml): block A's terminator — an unconditional
   direct branch to B — sits mid-array, followed by block B's instructions.
   The real passes must be free to optimise across the seam (B consumes
   constants established in A) without the validator objecting. *)
let stitched_superblock () =
  [|
    mk_insn ~va:0x1000 [ alu Uop.Orr 1 (Uop.Imm 0) (Uop.Imm 0x40) ];
    mk_insn ~va:0x1004 [ alu Uop.Add 2 (Uop.Reg 1) (Uop.Imm 4) ];
    mk_insn ~va:0x1008
      [ Uop.Branch { cond = Uop.Always; target = Uop.Direct 0x2000; link = None } ];
    mk_insn ~va:0x2000 [ alu Uop.Add 3 (Uop.Reg 2) (Uop.Imm 0) ];
    mk_insn ~va:0x2004 [ alu ~flags:true Uop.Sub 4 (Uop.Reg 3) (Uop.Reg 1) ];
    mk_insn ~va:0x2008
      [ Uop.Branch { cond = Uop.Ne; target = Uop.Direct 0x1000; link = None } ];
  |]

let test_validator_accepts_stitched_traces () =
  List.iter
    (fun (name, pass) ->
      let before = stitched_superblock () in
      let after = Ir.copy before in
      pass after;
      match Ir_check.check ~pass:name ~before ~after () with
      | None -> ()
      | Some v ->
        Alcotest.failf "%s rejected stitched IR: %s" name (Ir_check.message v))
    real_passes;
  (* and under the full pass pipeline, validated per pass, exactly as
     form_trace runs it *)
  let ir = stitched_superblock () in
  ignore
    (Ir.run
       ~validate:(fun ~pass ~before ~after ->
         match Ir_check.check ~pass ~before ~after () with
         | None -> ()
         | Some v ->
           Alcotest.failf "pipeline pass %s rejected stitched IR: %s" pass
             (Ir_check.message v))
       ~passes:4 ir
      : int)

(* A deliberately broken "optimisation": drops the flag side-effect of
   every ALU uop.  The validator must pinpoint the flag divergence. *)
let drop_flags (ir : Ir.t) =
  Array.iteri
    (fun i insn ->
      ir.(i) <-
        {
          insn with
          Ir.uops =
            List.map
              (function
                | Uop.Alu { op; rd; rn; rm; set_flags = _ } ->
                  Uop.Alu { op; rd; rn; rm; set_flags = false }
                | u -> u)
              insn.Ir.uops;
        })
    ir

let test_validator_catches_broken_pass () =
  let before = sample_block () in
  let after = Ir.copy before in
  drop_flags after;
  match Ir_check.check ~pass:"drop_flags" ~before ~after () with
  | None -> Alcotest.fail "flag-dropping pass not flagged"
  | Some v ->
    Alcotest.(check string) "pass name" "drop_flags" v.Ir_check.pass;
    Alcotest.(check int) "first bad slot" 0x1008 v.Ir_check.va;
    Alcotest.(check bool)
      "detail names a flag" true
      (String.length v.Ir_check.detail > 0)

let test_validated_sweep_is_clean () =
  let arch = Sb_isa.Arch_sig.Sba in
  let divergences =
    Sb_verify.Verify.random_sweep ~arch
      ~engines:[ Simbench.Engines.interp arch; Simbench.Engines.dbt arch ]
      ~seeds:4
      ~validate_passes:(fun ~version ~pass ~before ~after ->
        Option.map Ir_check.message (Ir_check.check ?version ~pass ~before ~after ()))
      ()
  in
  match divergences with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "divergence (%s vs %s): %s" d.Sb_verify.Verify.reference_engine
      d.Sb_verify.Verify.diverging_engine d.Sb_verify.Verify.detail

(* Same validated sweep against a trace-aggressive DBT: the random
   programs' bounded loops go hot at threshold 2, so the installed checker
   sees the stitched cross-block IR of every formed trace. *)
let test_validated_sweep_covers_traces () =
  let arch = Sb_isa.Arch_sig.Sba in
  let trace_dbt =
    Simbench.Engines.dbt_configured arch
      { Sb_dbt.Config.default with Sb_dbt.Config.trace_threshold = 2 }
  in
  let divergences =
    Sb_verify.Verify.random_sweep ~arch
      ~engines:[ Simbench.Engines.interp arch; trace_dbt ]
      ~seeds:4
      ~validate_passes:(fun ~version ~pass ~before ~after ->
        Option.map Ir_check.message (Ir_check.check ?version ~pass ~before ~after ()))
      ()
  in
  match divergences with
  | [] -> ()
  | d :: _ ->
    Alcotest.failf "divergence (%s vs %s): %s" d.Sb_verify.Verify.reference_engine
      d.Sb_verify.Verify.diverging_engine d.Sb_verify.Verify.detail

(* lint --json goes through Sb_util.Json: strings holding a quote, a
   newline and control bytes come back unchanged, in the schema's key
   order *)
let test_lint_json_round_trip () =
  let module Json = Sb_util.Json in
  let message = "say \"hi\"\nthen\x01 and \x1f\\" in
  let label = "l\tbl\"\r" in
  let finding =
    {
      Lint.rule = "use-before-def";
      severity = Lint.Warning;
      region = "kernel\n";
      loc = Some { Sb_analysis.Cfg.index = 3; context = Some label; offset = 2 };
      message;
    }
  in
  let violation =
    {
      Ir_check.pass = "dce\"";
      version = None;
      va = 0x1000;
      index = 1;
      detail = "r1:\x02\n";
    }
  in
  let doc =
    Lint.to_json ~errors:1 ~warnings:1
      [ ("bench \"q\"", "sba", [ finding ]) ]
      [ ("bench", "vlx", violation) ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
    Alcotest.(check bool) "decodes to the same document" true (j = doc);
    let keys = function Json.Obj fs -> List.map fst fs | _ -> [] in
    Alcotest.(check (list string)) "top-level keys"
      [ "schema"; "lints"; "pass_violations"; "errors"; "warnings" ]
      (keys j);
    let first name j =
      match Option.bind (Json.member name j) Json.list_opt with
      | Some (x :: _) -> x
      | _ -> Alcotest.failf "no %s" name
    in
    let str name j = Option.bind (Json.member name j) Json.string_opt in
    let f = first "findings" (first "lints" j) in
    Alcotest.(check (list string)) "finding keys"
      [ "rule"; "severity"; "region"; "op"; "label"; "offset"; "message" ]
      (keys f);
    Alcotest.(check (option string)) "message" (Some message) (str "message" f);
    Alcotest.(check (option string)) "label" (Some label) (str "label" f);
    let v = first "pass_violations" j in
    Alcotest.(check (option string)) "violation message"
      (Some (Ir_check.message violation))
      (str "message" v);
    Alcotest.(check bool) "no version is null" true
      (Json.member "version" v = Some Json.Null)

let () =
  Alcotest.run "analysis"
    [
      ( "lint-program",
        [
          Alcotest.test_case "clean program" `Quick test_clean_program;
          Alcotest.test_case "undefined label" `Quick test_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
          Alcotest.test_case "unreachable code" `Quick test_unreachable_code;
          Alcotest.test_case "fall off end" `Quick test_fall_off_end;
          Alcotest.test_case "fall into data" `Quick test_fall_into_data;
          Alcotest.test_case "use before def" `Quick test_use_before_def;
          Alcotest.test_case "roots assumed defined" `Quick
            test_roots_assume_defined;
          Alcotest.test_case "lr clobber" `Quick test_lr_clobber;
          Alcotest.test_case "lr saved ok" `Quick test_lr_saved_ok;
          Alcotest.test_case "unused label" `Quick test_unused_label;
        ] );
      ( "lint-bench",
        [
          Alcotest.test_case "v4 clobber" `Quick test_v4_clobber;
          Alcotest.test_case "v3 across fault" `Quick test_v3_across_fault;
          Alcotest.test_case "v3 severity by category" `Quick
            test_v3_severity_by_category;
          Alcotest.test_case "sp imbalance" `Quick test_sp_imbalance;
          Alcotest.test_case "sp balanced" `Quick test_sp_balanced_ok;
        ] );
      ( "suite-gate",
        [
          Alcotest.test_case "suite is lint-clean" `Quick test_suite_is_clean;
          Alcotest.test_case "workloads have no errors" `Quick
            test_workloads_have_no_errors;
        ] );
      ( "ir-check",
        [
          Alcotest.test_case "accepts real passes" `Quick
            test_validator_accepts_real_passes;
          Alcotest.test_case "accepts stitched traces" `Quick
            test_validator_accepts_stitched_traces;
          Alcotest.test_case "catches broken pass" `Quick
            test_validator_catches_broken_pass;
          Alcotest.test_case "validated sweep clean" `Quick
            test_validated_sweep_is_clean;
          Alcotest.test_case "validated sweep covers traces" `Quick
            test_validated_sweep_covers_traces;
        ] );
      ( "lint-json",
        [
          Alcotest.test_case "strings round-trip" `Quick
            test_lint_json_round_trip;
        ] );
    ]
