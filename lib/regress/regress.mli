(** Statistical regression detection between two benchmark runs.

    The paper's whole argument is that SimBench {e pinpoints} regressions
    that application-suite averages hide (Figures 2, 5 and 8): a
    per-benchmark collapse — mcf falling off a cliff between two QEMU
    releases — disappears inside the SPEC geometric mean.  This module
    loads two serialized runs (see {!Baseline}), pairs their measurement
    cells, decides {e with statistical confidence} which cells regressed,
    and attributes each shift to the mechanism category the affected
    benchmarks isolate.

    Significance is noise-aware: the reported time of a cell is the
    minimum across repeats, but the decision uses the {e full} sample
    vector — a pair only counts as regressed/improved when (a) the
    relative change of the reported time clears a minimum-effect
    threshold (default 5%, absorbing the documented ±5-10% host jitter on
    sub-10ms cells) {e and} (b) the t-based 95% confidence intervals of
    the two sample sets do not overlap.  Pairs where either side has
    fewer than two samples are not classified at all: with a degenerate
    (point or nan) interval there is no noise estimate, so they are
    reported as skipped (insufficient samples).  Cells whose status
    records a harness failure ("failed"/"timeout"/"quarantined") are
    likewise skipped with a note instead of compared. *)

(** One serialized measurement cell: its row, as read back from [--json]
    output, and its experiment of origin.  A row whose [row_status] is
    ["ok"] or ["retried <n>"] is compared normally; a terminal harness
    failure (["failed"]/["timeout"]/["quarantined"]) is skipped. *)
type cell = { experiment : string; row : Sb_report.Experiments.row }

type run = { source : string; cells : cell list }

val default_threshold : float
(** [0.05]: a 5% minimum effect. *)

type verdict = Regressed | Improved | Unchanged

(** Why a pair got its verdict. *)
type note =
  | Confirmed  (** over threshold and confidence intervals disjoint *)
  | Below_threshold
  | Within_noise  (** over threshold, but the intervals overlap *)

type comparison = {
  c_old : cell;
  c_new : cell;
  c_delta : float;  (** relative change of the reported (min) seconds *)
  c_ci_old : float * float;
  c_ci_new : float * float;
  c_verdict : verdict;
  c_note : note;
  c_insns_changed : bool;
      (** retired kernel instruction counts differ — a deterministic,
          noise-free signal that guest-visible behaviour changed *)
}

val classify : threshold:float -> old_cell:cell -> new_cell:cell -> comparison

type report = {
  r_threshold : float;
  r_old_source : string;
  r_new_source : string;
  r_engine_remap : (string * string) option;
      (** set when the runs had disjoint single-engine labels and cells
          were paired by (arch, cell) across the rename — the old-vs-new
          engine-version scenario of Figures 2/6 *)
  r_pairs : comparison list;
  r_only_old : cell list;
  r_only_new : cell list;
  r_mismatched : (cell * cell) list;
      (** paired cells whose iteration counts differ: not comparable *)
  r_skipped_status : (cell * cell) list;
      (** pairs where at least one side is a harness failure
          (status "failed"/"timeout"/"quarantined"): skipped with a note *)
  r_skipped_samples : (cell * cell) list;
      (** pairs where a side has fewer than two samples: no noise
          estimate, so no verdict is pretended *)
}

val compare_runs :
  ?threshold:float ->
  ?ignore_engine:bool ->
  old_run:run ->
  new_run:run ->
  unit ->
  report
(** Pairs cells by (engine, arch, cell) — duplicates across experiments
    (shared memoized sweep cells) are collapsed to their first occurrence.
    With [ignore_engine:true] the engine label is dropped from the key
    (used with {!Baseline.filter_engine} to compare two engine
    configurations out of the same sweep).  If strict pairing matches
    nothing and each run holds exactly one distinct engine, the engines
    are treated as renamed ([r_engine_remap]). *)

val regressions : report -> comparison list
val improvements : report -> comparison list

val exit_code : strict:bool -> report -> int
(** [1] when [strict] and at least one confirmed regression, else [0]. *)

(** {2 Counter gate}

    Timing-free: paired cells must agree exactly on their deterministic
    fields.  A translation blow-up or a lost fast path changes counters
    even where host noise would hide its time. *)

type counter_report = {
  k_old_source : string;
  k_new_source : string;
  k_equal : int;  (** paired cells whose counters all agree *)
  k_differ : (cell * cell * string list) list;
      (** paired cells that disagree, each with what differs
          (["Mmu_walks 20481 -> 20480"]): [iters], [kernel_insns], any
          [kernel_perf] counter (absent reads 0), or a failure status on
          either side *)
  k_only_old : cell list;
  k_only_new : cell list;
}

val compare_counters :
  ?ignore_engine:bool -> old_run:run -> new_run:run -> unit -> counter_report
(** Pairs cells like {!compare_runs}'s strict pairing (no engine remap) and
    compares [iters], [kernel_insns] and [kernel_perf]; samples and
    seconds are ignored. *)

val counters_exit_code : counter_report -> int
(** [0] when both runs hold the same cells and every pair is equal, else
    [1] ([simbench compare --counters]). *)

val render_counters : counter_report -> string
(** One line per differing or unpaired cell, then a verdict line. *)

val category_of_cell : string -> string
(** Benchmark/workload name, resolved by {!Sb_workloads.Target.find}, to
    SimBench category name ({!Simbench.Category}); SPEC-analog workloads
    map to "Application", unknown cells to "Other". *)

val mechanism_hint : string -> string option
(** The simulator mechanism a category-level shift implicates — the
    paper's reading ("code-gen regressed: consistent with a
    translation-cache change"). *)

type category_summary = {
  cat_name : string;
  cat_cells : int;
  cat_regressed : int;
  cat_improved : int;
  cat_geomean_ratio : float;  (** geomean of new/old reported seconds *)
}

val attribution : report -> category_summary list
(** Per-category roll-up of every paired cell, in first-seen order. *)

val render : ?all_cells:bool -> report -> string
(** Human-readable diff: changed cells (all cells with [all_cells:true])
    as a {!Sb_util.Tablefmt} table, regressions first, then the category
    attribution, a list of status-skipped cells with their statuses, and
    a summary line including skip counts. *)

val to_json : report -> Sb_util.Json.t
(** Machine-readable report ([simbench compare --json]). *)
