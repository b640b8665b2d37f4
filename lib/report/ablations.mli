(** Ablation studies for the design choices DESIGN.md calls out.

    Each study sweeps one implementation mechanism and reports the SimBench
    benchmarks that mechanism is supposed to dominate — the suite validating
    the simulators, exactly as the paper uses it.

    Each cell is measured by {!Experiments.measure} on the SBA guest, with
    the [scale] and [repeats] of the given {!Experiments.config}
    (default {!Experiments.default_config}); unless a study fixes the
    iteration count, it is the Figure 3 count divided by [scale], floored
    at 1000.  With [?opts] (see {!Experiments.run_opts}) the
    variant columns of each study run as parallel {!Sb_jobs.Pool} tasks.
    The engine variants are built from closures, so ablation cells are
    never disk-cached — only forked. *)

val chaining :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** DBT block chaining on/off against the control-flow benchmarks. *)

val page_cache :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Page-cache geometry (L1 size, L2 presence, lazy flush) against the
    memory-system benchmarks. *)

val optimiser :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Optimiser pass budget vs translation-heavy and compute-heavy
    benchmarks: the code-quality/translation-cost trade-off. *)

val traces :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Hot-trace superblock formation on/off and knob sweep (threshold,
    maximum trace length) against the control-flow and self-modifying-code
    benchmarks; see docs/traces.md. *)

val threaded :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Token-threaded code generation vs the closure backend, with and without
    the trace-scope register cache, against the compute-dense and
    self-modifying benchmarks; see docs/threaded.md. *)

val vm_exit :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Virtualization exit cost sweep against the trap-heavy benchmarks (the
    KVM signature). *)

val predecode :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
(** Interpreter pre-decoding on/off. *)

val all :
  ?config:Experiments.config -> ?opts:Experiments.run_opts -> unit -> string
