(** Experiment drivers: one entry point per table/figure of the paper's
    evaluation (see DESIGN.md section 6 for the index).

    Each driver runs the required sweep and renders a plain-text table (for
    the paper's tables) or a labelled series table (for its line graphs).
    Results are memoized per (engine-configuration, architecture, scale), so
    Figures 2, 6 and 8 — which share the QEMU-version sweep — do not re-run
    each other's measurements within a process.

    Independent sweep cells can additionally be farmed out to a
    {!Sb_jobs.Pool} of forked workers ([opts.jobs]) and backed by a
    persistent on-disk {!Sb_jobs.Cache} ([opts.cache_dir]); with the default
    {!sequential} options every measurement runs in-process, in the same
    order as before the pool existed. *)

type config = {
  scale : int;          (** Figure 3 iteration counts are divided by this *)
  workload_iters : int; (** kernel passes per workload run *)
  repeats : int;        (** timing repeats; the minimum is reported *)
  spec_density_iters : int;
  switch_at : Simbench.Checkpoint.point option;
      (** checkpointed fast-forward for every grid cell: run (or restore)
          setup up to this point and start the timed engine there — the
          gem5 [switch_cpus] idiom; see {!Simbench.Harness.run}.  When
          [opts.cache_dir] is set the checkpoints live in the same
          directory as the result cache, so one warm boot is shared by
          every engine column, repeat and later process.  [None] (the
          default) is a cold run; cold and fast-forwarded cells have
          distinct memo keys and cache fingerprints. *)
}

val default_config : config

val quick_config : config
(** Cheap settings for tests and smoke runs. *)

type run_opts = {
  jobs : int;  (** worker processes; 1 = in-process sequential *)
  cache_dir : string option;
      (** persistent result cache; cells are keyed by a digest of (engine
          knobs, arch, workload kind, iteration counts, scale) *)
  deadline : float option;
      (** per-cell wall-clock budget in seconds; overrunning workers are
          killed and the cell reported with status ["timeout"].  Forces
          the forked pool path even at [jobs = 1]. *)
  retries : int;
      (** extra attempts for cells whose worker {e crashed} (never for
          timeouts); a late success is reported as ["retried <n>"] *)
}

val sequential : run_opts
(** [{ jobs = 1; cache_dir = None; deadline = None; retries = 0 }] —
    single-process behaviour, failures after zero retries. *)

(** One measured (benchmark, engine, arch) cell: the paper's measurement
    triple plus the repeat statistics, in marshallable form. *)
type row = {
  row_cell : string;
  row_engine : string;
  row_arch : string;
  row_iters : int;
  row_repeats : int;
  row_seconds : float;  (** minimum across repeats (reported time) *)
  row_mean_seconds : float;  (** kept for machine-readable output *)
  row_samples : float list;
      (** raw per-repeat kernel seconds in run order — what the regression
          detector's noise-aware significance test ({!Sb_regress}) needs;
          the min/mean above are derived from it *)
  row_kernel_insns : int;
  row_perf : (string * int) list;
      (** non-zero kernel-phase architectural and engine counters
          ({!Sb_sim.Perf.to_string} names, declaration order) — this is
          where the DBT's [Traces_formed] / [Trace_dispatches] /
          [Trace_side_exits] / [Trace_invalidations] surface in [--json]
          output *)
  row_status : string;
      (** ["ok"]; ["retried <n>"] (succeeded after n crashed attempts);
          or a terminal failure — ["failed"], ["timeout"],
          ["quarantined"] — in which case the timing fields are
          [nan]/zero placeholders and [row_note] says why.  Downstream,
          {!Sb_regress} skips non-ok cells with a note instead of
          comparing them. *)
  row_note : string;  (** failure detail; empty when ok *)
}

(** {2 The row path}

    Every driver — the figure sweeps, {!Ablations}, the serve daemon,
    [Sb_regress.Baseline] and [bench/main.exe --json] — measures, fails
    and encodes a cell through these functions. *)

type target = Bench of Simbench.Bench.t | Workload of Sb_workloads.Workloads.t

val target_of_name : string -> (target, string) result
(** A suite bench, then an extension bench (both case-insensitive), then a
    workload. *)

val measure :
  label:string ->
  arch:Sb_isa.Arch_sig.arch_id ->
  cell:string ->
  repeats:int ->
  ?scale:int ->
  ?iters:int ->
  ?switch_at:Simbench.Checkpoint.point ->
  ?checkpoints:Simbench.Checkpoint.store ->
  engine:Sb_sim.Engine.t ->
  target ->
  row
(** Run [target] [max 1 repeats] times through {!Simbench.Harness.run} or
    {!Sb_workloads.Workloads.run} ([scale] applies to benches only) and
    make its row: minimum and mean kernel seconds over the repeats, plus
    the iterations, kernel instructions and kernel counters of the first
    run.  [label] and [cell] become [row_engine] and [row_cell] as given.
    Raises on a guest failure; inside a pool worker that becomes a
    [Failed] outcome. *)

val failure_row :
  arch:string -> label:string -> cell:string -> Sb_jobs.Pool.failure -> row
(** The placeholder row of a cell the pool could not produce: status
    ["failed"], ["timeout"], ["quarantined"] or ["cancelled"], [nan]
    seconds, zero counts, and the failure detail as [row_note]. *)

val mark_retried : int -> row -> row
(** Status ["retried <n>"]: the row succeeded after [n] crashed attempts. *)

val row_to_json : row -> Sb_util.Json.t
(** The cell object of [bench/main.exe --json] files and of serve [row]
    frames; [nan] seconds encode as [null]. *)

val row_of_json : Sb_util.Json.t -> (row, string) result
(** Inverse of {!row_to_json}.  Errors start with ["row: "] and name the
    missing or ill-typed field; ["kernel_perf"] and ["status_note"] are
    optional. *)

val reset_memo : unit -> unit
(** Drop the in-process memo (tests use this to force re-measurement). *)

val reset_records : unit -> unit

val recorded : unit -> row list
(** Every cell touched since the last {!reset_records}, sorted — the
    payload of [bench/main.exe --json]. *)

type cell_kind = [ `Suite | `Workloads of int ]

val cell_fingerprint :
  config:config ->
  arch:Sb_isa.Arch_sig.arch_id ->
  kind:cell_kind ->
  Sb_dbt.Config.t ->
  string
(** The on-disk cache key of a version-sweep cell; changes whenever any
    knob of the configuration, the arch, the kind, the iteration counts or
    the scale changes. *)

val prefetch :
  ?opts:run_opts ->
  config:config ->
  (Sb_isa.Arch_sig.arch_id * cell_kind * Sb_dbt.Config.t) list ->
  unit
(** Measure (or cache-load) any not-yet-memoized cells, [opts.jobs] at a
    time.  A cell whose worker fails, times out or is quarantined does
    {e not} abort the run: it is memoized as placeholder rows with the
    corresponding non-ok {!row.row_status} (one per benchmark of the
    cell), a warning goes to stderr, and rendering continues with gaps. *)

val cell_rows :
  ?opts:run_opts ->
  config:config ->
  arch:Sb_isa.Arch_sig.arch_id ->
  kind:cell_kind ->
  Sb_dbt.Config.t ->
  row list

val fig2 : ?config:config -> ?opts:run_opts -> unit -> string
(** sjeng vs mcf vs overall SPEC rating across QEMU versions. *)

val fig3 : ?config:config -> unit -> string
(** The benchmark table: iterations and operation densities. *)

val fig4 : unit -> string
(** Implementation-technique matrix of the evaluated platforms. *)

val fig5 : unit -> string
(** Host environment description. *)

val fig6 : ?config:config -> ?opts:run_opts -> unit -> string
(** Per-category SimBench speedups across QEMU versions, both guests. *)

val fig7 : ?config:config -> ?opts:run_opts -> unit -> string
(** Full suite runtimes on every platform, both guests. *)

val fig8 : ?config:config -> ?opts:run_opts -> unit -> string
(** Geomean SPEC vs geomean SimBench speedup across QEMU versions. *)

val extensions : ?config:config -> ?opts:run_opts -> unit -> string
(** The extension benchmarks (future work implemented) across the five
    platforms. *)

val all : ?config:config -> ?opts:run_opts -> unit -> string
(** Every experiment, in figure order, with headers; prefetches the whole
    version sweep in one pool pass first. *)

val synthetic_faults : ?opts:run_opts -> unit -> string
(** Harness self-check: drive one healthy, one crashing and one hanging
    synthetic cell through the pool (deadline defaults to 10s when
    [opts.deadline] is unset; at least two workers) and render their
    per-cell statuses.  The rows are {!recorded}, so [--json] output
    carries statuses ["ok"], ["failed"] and ["timeout"] — what the CI
    chaos smoke job asserts on.  Never raises. *)

(** Raw data access for tests and ablations. *)

val suite_times_for_version :
  ?opts:run_opts ->
  arch:Sb_isa.Arch_sig.arch_id ->
  config:config ->
  Sb_dbt.Config.t ->
  (string * float) list
(** Kernel seconds per benchmark for one DBT configuration (memoized). *)

val workload_times_for_version :
  ?opts:run_opts ->
  arch:Sb_isa.Arch_sig.arch_id ->
  config:config ->
  Sb_dbt.Config.t ->
  (string * float) list
