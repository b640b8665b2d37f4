(** Static checker for portable benchmark assembly.

    Enforces the conventions {!Simbench.Pasm} documents but the runtime can
    only discover dynamically (as a cross-engine divergence or a wedged
    guest): structural sanity of the label graph, definite initialisation,
    and the three register conventions — [v4] is the runtime's iteration
    counter, [v3] is exception-handler scratch, [sp]/[lr] must balance
    across a phase.  See docs/analysis.md for each rule with a minimal
    failing example. *)

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  region : string;
      (** where the linted program came from: "program" for whole-image
          rules, "kernel" / "functions" / "handler" for phase-scoped
          rules *)
  loc : Cfg.loc option;
  message : string;
}

val render : finding -> string
(** ["error[use-before-def] program at op 12 (sb_rw+3): ..."]. *)

val errors : finding list -> finding list

val lint_program :
  ?roots:string list -> Simbench.Pasm.op list -> finding list
(** Whole-program rules: undefined / duplicate / unused labels, unreachable
    code, falling off the end (or into data), register use-before-def, and
    [lr] clobbered across nested calls.  [roots] are labels entered by
    hardware (extra reachability roots, registers assumed defined). *)

val lint_bench :
  support:Simbench.Support.t ->
  ?platform:Simbench.Platform.t ->
  Simbench.Bench.t ->
  finding list
(** [lint_program] over the full runtime image ({!Simbench.Rt.ops}) plus the
    phase-scoped convention rules on the benchmark body: [v4] clobbering,
    values live in [v3] across faulting ops, and [sp] imbalance across the
    kernel phase or a function.  For [Category.Application] programs (the
    SPEC-analog workloads, which run fully mapped and take no synchronous
    faults) the [v3] rule is advisory: findings carry [Warning] severity. *)

val lint_suite :
  ?benches:Simbench.Bench.t list ->
  ?arches:Sb_isa.Arch_sig.arch_id list ->
  unit ->
  (string * string * finding list) list
(** Every benchmark (default: shipped suite + extension suite) under every
    architecture support package of [arches] (default: both);
    [(bench, arch, findings)] triples, arch by arch. *)

val json_schema : string
(** ["simbench-lint-json-1"] — the [schema] field of {!to_json} output. *)

val to_json :
  errors:int ->
  warnings:int ->
  (string * string * finding list) list ->
  (string * string * Ir_check.violation) list ->
  Sb_util.Json.t
(** The [simbench lint --json] document: the [(bench, arch, findings)]
    triples of {!lint_suite}, then the optimiser-pass violations found
    over the same images as [(bench, arch, violation)], then the error and
    warning totals.  A finding's ["op"], ["label"] and ["offset"] appear
    only when its location has them. *)
