(** Symbolic translation validation: decode -> IR emission vs. interpreter
    semantics.

    For every encoding class an architecture enumerates
    ({!Sb_arch_sba.Encodings}, {!Sb_arch_vlx.Encodings}), each concrete
    encoding is decoded once and executed twice over the symbolic domain of
    {!Sym}: directly over the decoded micro-ops (the interpreter's
    reference semantics — the interpreter executes exactly these) and over
    the IR the DBT emits for the block after running the optimiser pipeline
    of a given {!Sb_dbt.Version}, with the emitter's instruction
    specialisations modelled by {!Sb_dbt.Emission.model_uop}.  Equal final
    symbolic states prove the translation preserves the architecture for
    {e every} initial register file, flag assignment and memory contents —
    not just the ones a test run happens to produce.

    Each encoding is checked standalone and behind a constant-seeding
    prefix instruction, so cross-instruction constant propagation is
    exercised, for every registered DBT version. *)

type divergence = {
  arch : string;
  version : string;  (** DBT version whose pipeline diverged *)
  cls : string;  (** encoding class name *)
  case : string;  (** case label within the class *)
  bytes : string;  (** the encoding, hex, in fetch order *)
  sequence : string;  (** ["single"] or ["const-prefixed"] *)
  component : string;
      (** which lowering diverged: ["closure"] for the closure emitter's
          model, ["threaded"] / ["threaded+mmu"] for the token-threaded
          opstream under the physical / virtual memory regime *)
  detail : string;  (** first divergent component, with both symbolic values *)
}

type coverage = {
  cov_cls : string;
  cov_cases : int;
  cov_checks : int;
  cov_skip : string option;  (** reason, for classes deliberately skipped *)
}

type report = {
  rep_arch : string;
  rep_versions : string list;
  rep_coverage : coverage list;
  rep_checks : int;
  rep_divergences : divergence list;
  rep_truncated : bool;  (** scan stopped at the divergence cap *)
  rep_selector_space : int;
  rep_selector_desc : string;
  rep_gaps : int list;  (** selector values no class claims *)
  rep_overlaps : int list;  (** selector values claimed more than once *)
}

val encodings : Sb_isa.Arch_sig.arch_id -> Sb_isa.Encoding.set
(** The architecture's encoding-space enumeration. *)

val run :
  arch:Sb_isa.Arch_sig.arch_id ->
  ?versions:string list ->
  ?max_divergences:int ->
  unit ->
  report
(** Validate every enumerated encoding under every listed DBT version
    (default: all of {!Sb_dbt.Version.all}).  Raises [Invalid_argument] on
    an unknown version name. *)

val ok : ?strict:bool -> report -> bool
(** No divergences and the scan was not truncated; with [~strict:true] the
    enumeration must also tile the selector space (no gaps, no overlaps, no
    unskipped class without cases). *)

val enumeration_complete : report -> bool

val render : ?verbose:bool -> report -> string
(** Human-readable coverage report; [~verbose:true] adds a per-class
    check-count table. *)

val json_schema : string
(** ["simbench-tv-json-2"] — the [schema] field of {!to_json} output
    (bumped when the threaded-lowering [component] attribution was added
    to divergence records). *)

val to_json : report -> Sb_util.Json.t

val check_case :
  (module Sb_isa.Arch_sig.ARCH) ->
  config:Sb_dbt.Config.t ->
  int list ->
  (string * string) option
(** One byte sequence under one configuration, checked against the closure
    emission model and the threaded opstream lowering (both translation
    regimes); [Some (component, detail)] on the first divergence.  Exposed
    for unit tests. *)

val arch_module : Sb_isa.Arch_sig.arch_id -> (module Sb_isa.Arch_sig.ARCH)
(** The architecture module of an ISA. *)

val sweep_program :
  arch:Sb_isa.Arch_sig.arch_id ->
  ?config:Sb_dbt.Config.t ->
  ?version:string ->
  read8:(int -> int) ->
  base:int ->
  len:int ->
  unit ->
  Ir_check.violation list
(** Statically sweep an assembled image: decode linearly, chunk at block
    terminators (capped like the DBT's block former), run the
    configuration's optimiser pipeline over each chunk under the
    {!Ir_check} pass validator, and return the (deduplicated) violations.
    The lint verb runs this over every benchmark image. *)
