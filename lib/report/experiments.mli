(** Experiment drivers: one entry point per table/figure of the paper's
    evaluation (see DESIGN.md section 6 for the index).  {!Registry} lists
    them, with the {!Ablations}, under the names [simbench report]
    accepts.

    Every measurement is a {!column}: one engine over a list of cells, run
    as one {!Sb_jobs.Pool} task by {!columns}.  The figures, the version
    sweep they share and the ablations all build column lists and call
    {!columns}, which farms them out to [opts.jobs] forked workers.  A
    keyed column is memoized in-process and, with [opts.cache_dir], cached
    on disk under the same {!column_key}, so Figures 2, 6 and 8 (which
    share the QEMU-version sweep) do not re-run each other's measurements.
    With the default {!sequential} options every column runs in-process,
    in order, and each driver renders a plain-text table (for the paper's
    tables) or a labelled series table (for its line graphs). *)

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

val switch_name : Simbench.Checkpoint.point option -> string
(** ["cold"], or the switch point as {!Simbench.Checkpoint.point_to_string}
    spells it: the [switch_at] of bench JSON and part of every cache key. *)

type run_opts = {
  jobs : int;  (** worker processes; 1 = in-process sequential *)
  cache_dir : string option;
      (** persistent result cache of keyed columns, under {!column_key} *)
  deadline : float option;
      (** per-column wall-clock budget in seconds; overrunning workers
          are killed and the column's cells reported with status
          ["timeout"].  Forces the forked pool path even at [jobs = 1]. *)
  retries : int;
      (** extra attempts for columns whose worker {e crashed} (never for
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
    [Sb_regress.Baseline] and [simbench report --json] — measures, fails
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
(** The cell object of [simbench report --json] files and of serve [row]
    frames; [nan] seconds encode as [null]. *)

val row_of_json : Sb_util.Json.t -> (row, string) result
(** Inverse of {!row_to_json}.  Errors start with ["row: "] and name the
    missing or ill-typed field; ["kernel_perf"] and ["status_note"] are
    optional. *)

val reset_records : unit -> unit

val record : row list -> unit
(** Add rows to {!recorded}; a row whose (engine, arch, cell) is already
    there is ignored. *)

val recorded : unit -> row list
(** Every cell touched since the last {!reset_records}, sorted — the
    payload of [simbench report --json]. *)

(** {2 Columns} *)

type cell = {
  name : string;  (** becomes [row_cell] *)
  target : target;
  iters : int option;
      (** a fixed iteration count; [None] is a bench's Figure 3 count
          divided by the config's [scale] *)
}

type column = {
  label : string;  (** becomes [row_engine] *)
  arch : Sb_isa.Arch_sig.arch_id;
  engine : unit -> Sb_sim.Engine.t;  (** called where the column runs *)
  cells : cell list;
  key : string option;
      (** a digest of the column's identity, which with its arch, its
          cells and the config determines its rows.  [None]: the column
          runs every time {!columns} is asked for it, and is never
          memoized or cached. *)
}

val suite_cells : cell list
(** {!Simbench.Suite.all}, at the Figure 3 counts divided by [scale]. *)

val workload_cells : int -> cell list
(** Every SPEC-analog workload at that many kernel passes. *)

val version_column :
  arch:Sb_isa.Arch_sig.arch_id -> cell list -> Sb_dbt.Config.t -> column
(** The DBT under one configuration, labelled ["dbt:<release>"] (or
    ["dbt:custom"]); its identity is the whole configuration record. *)

val paper_columns :
  tag:string -> arch:Sb_isa.Arch_sig.arch_id -> cell list -> column list
(** One column per {!Simbench.Engines.paper_set} engine, labelled with its
    platform name; its identity is [tag] (the experiment), the label and
    the engine's feature row. *)

val column_key : config:config -> column -> string option
(** The memo and disk-cache key of a keyed column: a digest of its
    identity, arch, cell names and iteration counts, and the config's
    scale, repeats and switch point.  [None] for an unkeyed column. *)

val columns : ?opts:run_opts -> config:config -> column list -> row list list
(** The rows of each column, positionally, one row per cell in cell
    order.  One {!Sb_jobs.Pool} pass with [opts] (default {!sequential})
    runs every unkeyed column and every keyed column not yet memoized,
    once per key; keyed results are memoized, and with [opts.cache_dir]
    also cached on disk, so a memoized column returns the physically same
    list.  A column whose task fails, times out or is quarantined does
    {e not} abort the run: a warning goes to stderr and it becomes one
    failure row per cell (status ["failed"], ["timeout"], …), memoized
    like any result, so figures render with gaps.  Every row returned is
    {!record}ed.  With [config.switch_at] set, each cell fast-forwards
    through a checkpoint store in [opts.cache_dir]. *)

val reset_memo : unit -> unit
(** Drop the in-process memo (tests use this to force re-measurement). *)

val version_sweep : config -> column list
(** Every column Figures 2, 6 and 8 read: both guests' suites and the SBA
    workloads, under the baseline and every release.  The [all]
    experiment runs it through {!columns} in one pool pass. *)

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

val synthetic_faults : ?opts:run_opts -> unit -> string
(** Harness self-check: drive one healthy, one crashing and one hanging
    synthetic cell through the pool (deadline defaults to 10s when
    [opts.deadline] is unset; at least two workers) and render their
    per-cell statuses.  The rows are {!recorded}, so [--json] output
    carries statuses ["ok"], ["failed"] and ["timeout"] — what the CI
    chaos smoke job asserts on.  Never raises. *)
