(** Loading and snapshotting serialized benchmark runs.

    Two on-disk shapes are understood, both schema-tagged so old files
    (which lack the raw per-repeat samples) are rejected with a clear
    message instead of mis-decoded:

    - a {e run directory}: the [BENCH_<experiment>.json] files written by
      [simbench report --json DIR] (schema {!bench_schema}, built by
      {!bench_json});
    - a {e snapshot}: one self-contained file merging every cell of a run
      (schema {!snapshot_schema}), written by [simbench baseline] and the
      thing you check in as a CI baseline (see [bench/baseline/]). *)

val bench_schema : string
(** ["simbench-bench-json-3"] — per-experiment [--json] files; bumped when
    cells gained the per-cell [status] field.  Files with any other tag,
    schema 2 included, are rejected with a message naming both tags. *)

val snapshot_schema : string
(** ["simbench-baseline-1"] — merged baseline snapshots. *)

val json_of_cell : Regress.cell -> Sb_util.Json.t
(** [experiment], then the {!Sb_report.Experiments.row_to_json} fields. *)

val cell_of_json :
  source:string ->
  experiment:string ->
  Sb_util.Json.t ->
  (Regress.cell, string) result
(** Decodes the row fields with {!Sb_report.Experiments.row_of_json} and
    adds the experiment: [experiment] is the default when the cell object
    carries none (bench files record it once at top level).  Errors name
    [source] and the cell. *)

val cells_of_list :
  source:string ->
  experiment:string ->
  Sb_util.Json.t list ->
  (Regress.cell list, string) result
(** {!cell_of_json} of each cell object, in order; the first error wins. *)

val bench_json :
  ?run:Sb_report.Experiments.run_opts * Sb_report.Experiments.config ->
  experiment:string ->
  Sb_util.Json.t list ->
  Sb_util.Json.t
(** A bench-schema document: [schema], [experiment], then with [run] the
    recording's [jobs] and [config] ([scale], [workload_iters], [repeats],
    [switch_at]), then [cells] — {!Sb_report.Experiments.row_to_json}
    objects, in order.  [simbench report --json] writes one per
    experiment; [client --json] and [client --dump] have no recording
    settings and pass no [run]. *)

val load_bench_file : string -> (Regress.cell list, string) result
(** One [BENCH_*.json] file; rejects files not tagged {!bench_schema}. *)

val load_run_dir : string -> (Regress.run, string) result
(** Every [BENCH_*.json] in a [--json] output directory, sorted by file
    name; an error if there are none. *)

val load_snapshot : string -> (Regress.run, string) result

val load : string -> (Regress.run, string) result
(** Directory: {!load_run_dir}.  File: accepted as either a snapshot or a
    single bench file, keyed on its ["schema"] field. *)

val filter_engine : Regress.run -> string -> Regress.run
(** Keep only the cells of one engine label (pair with
    [Regress.compare_runs ~ignore_engine:true]).  A [dbt:NAME] label is
    first mapped to its canonical release ({!Sb_dbt.Version.canonical}),
    the label recorded rows carry: [dbt:v2.5.0-rc2] keeps the
    [dbt:v2.5.0-rc0] cells. *)

val json_of_run : Regress.run -> Sb_util.Json.t

val write_json : out:string -> Sb_util.Json.t -> unit
(** Write one document and a newline to [out], creating parent
    directories as needed. *)

val write_snapshot : out:string -> Regress.run -> unit
(** {!write_json} of {!json_of_run}. *)
