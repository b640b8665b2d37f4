module Json = Sb_util.Json
module Tablefmt = Sb_util.Tablefmt
module Stats = Sb_util.Stats
module Pool = Sb_jobs.Pool
module Cache = Sb_jobs.Cache

type config = {
  scale : int;
  workload_iters : int;
  repeats : int;
  spec_density_iters : int;
  switch_at : Simbench.Checkpoint.point option;
}

let default_config =
  {
    scale = 2_000;
    workload_iters = 60;
    repeats = 2;
    spec_density_iters = 10;
    switch_at = None;
  }

let quick_config =
  {
    scale = 100_000;
    workload_iters = 5;
    repeats = 1;
    spec_density_iters = 6;
    switch_at = None;
  }

let switch_name = function
  | None -> "cold"
  | Some p -> Simbench.Checkpoint.point_to_string p

type run_opts = {
  jobs : int;
  cache_dir : string option;
  deadline : float option;
  retries : int;
}

let sequential = { jobs = 1; cache_dir = None; deadline = None; retries = 0 }

let arch_label = function
  | Sb_isa.Arch_sig.Sba -> "ARM Guest (SBA-32)"
  | Sb_isa.Arch_sig.Vlx -> "x86 Guest (VLX-32)"

(* ------------------------------------------------------------------ *)
(* Measurement cells                                                    *)
(* ------------------------------------------------------------------ *)

type row = {
  row_cell : string;  (** benchmark or workload name *)
  row_engine : string;
  row_arch : string;
  row_iters : int;
  row_repeats : int;
  row_seconds : float;  (** minimum across repeats *)
  row_mean_seconds : float;
  row_samples : float list;  (** raw per-repeat kernel seconds, run order *)
  row_kernel_insns : int;
  row_perf : (string * int) list;
  row_status : string;
      (** ["ok"], ["retried <n>"], ["failed"], ["timeout"], ["quarantined"] *)
  row_note : string;  (** failure detail; empty when ok *)
}

type cell_kind = [ `Suite | `Workloads of int ]

type key = {
  k_arch : Sb_isa.Arch_sig.arch_id;
  k_dbt : Sb_dbt.Config.t;
  k_scale : int;
  k_repeats : int;
  k_kind : cell_kind;
  k_switch : string;  (** {!switch_name}: cold and fast-forwarded cells
                          are distinct measurements *)
}

let memo : (key, row list) Hashtbl.t = Hashtbl.create 64

(* the projected (name, seconds) lists are memoized too, so repeat calls
   return the physically same list (tests rely on [==] to prove no
   re-measurement happened) *)
let times_memo : (key, (string * float) list) Hashtbl.t = Hashtbl.create 64

let reset_memo () =
  Hashtbl.reset memo;
  Hashtbl.reset times_memo

(* every measured cell of the current process, for --json output; keyed to
   dedup re-reads of memoized cells *)
let records : (string, row) Hashtbl.t = Hashtbl.create 256

let reset_records () = Hashtbl.reset records

let record rows =
  List.iter
    (fun r ->
      let k = String.concat "|" [ r.row_engine; r.row_arch; r.row_cell ] in
      if not (Hashtbl.mem records k) then Hashtbl.add records k r)
    rows

let recorded () =
  List.sort compare (Hashtbl.fold (fun _ r acc -> r :: acc) records [])

(* ------------------------------------------------------------------ *)
(* The row path: every driver measures, fails and encodes a cell here   *)
(* ------------------------------------------------------------------ *)

type target = Bench of Simbench.Bench.t | Workload of Sb_workloads.Workloads.t

let target_of_name name =
  match Simbench.Suite.find name with
  | Some b -> Ok (Bench b)
  | None -> (
    match Simbench.Suite_ext.find name with
    | Some b -> Ok (Bench b)
    | None -> (
      match Sb_workloads.Workloads.find name with
      | Some w -> Ok (Workload w)
      | None -> Error (Printf.sprintf "unknown benchmark or workload %S" name)))

let measure ~label ~arch ~cell ~repeats ?scale ?iters ?switch_at ?checkpoints
    ~engine target =
  let support = Simbench.Engines.support arch in
  let run1 () =
    match target with
    | Bench b ->
      Simbench.Harness.run ?scale ?iters ?switch_at ?checkpoints ~support
        ~engine b
    | Workload w ->
      Sb_workloads.Workloads.run ?iters ?switch_at ?checkpoints ~support ~engine
        w
  in
  let o = run1 () in
  let rec more acc n =
    if n = 0 then List.rev acc
    else more ((run1 ()).Simbench.Harness.kernel_seconds :: acc) (n - 1)
  in
  let repeats = max 1 repeats in
  let times = more [ o.Simbench.Harness.kernel_seconds ] (repeats - 1) in
  {
    row_cell = cell;
    row_engine = label;
    row_arch = Simbench.Engines.arch_name arch;
    row_iters = o.Simbench.Harness.iters;
    row_repeats = repeats;
    row_seconds = Stats.min_of_repeats times;
    row_mean_seconds = Stats.mean times;
    row_samples = times;
    row_kernel_insns = o.Simbench.Harness.kernel_insns;
    row_perf =
      (match o.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf with
      | None -> []
      | Some p ->
        List.map
          (fun (c, n) -> (Sb_sim.Perf.to_string c, n))
          (Sb_sim.Perf.to_alist p));
    row_status = "ok";
    row_note = "";
  }

(* Failure as data: a cell the pool could not produce becomes a row with a
   non-ok status instead of an exception that sinks the whole run. *)
let failure_row ~arch ~label ~cell (f : Pool.failure) =
  {
    row_cell = cell;
    row_engine = label;
    row_arch = arch;
    row_iters = 0;
    row_repeats = 0;
    row_seconds = nan;
    row_mean_seconds = nan;
    row_samples = [];
    row_kernel_insns = 0;
    row_perf = [];
    row_status =
      (match f.Pool.fl_kind with
      | Pool.Crashed -> "failed"
      | Pool.Timed_out -> "timeout"
      | Pool.Quarantined -> "quarantined"
      | Pool.Cancelled -> "cancelled");
    row_note = f.Pool.fl_detail;
  }

let mark_retried n r = { r with row_status = Printf.sprintf "retried %d" n }

let row_to_json r =
  Json.Obj
    [
      ("cell", Json.String r.row_cell);
      ("engine", Json.String r.row_engine);
      ("arch", Json.String r.row_arch);
      ("iters", Json.Int r.row_iters);
      ("repeats", Json.Int r.row_repeats);
      ("seconds", Json.Float r.row_seconds);
      ("mean_seconds", Json.Float r.row_mean_seconds);
      ("samples", Json.List (List.map (fun s -> Json.Float s) r.row_samples));
      ("kernel_insns", Json.Int r.row_kernel_insns);
      ( "kernel_perf",
        Json.Obj (List.map (fun (name, n) -> (name, Json.Int n)) r.row_perf) );
      ("status", Json.String r.row_status);
      ("status_note", Json.String r.row_note);
    ]

let row_of_json j =
  let ( let* ) = Result.bind in
  let field kind decode name =
    match Option.bind (Json.member name j) decode with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "row: missing %s field %S" kind name)
  in
  let str = field "string" Json.string_opt in
  let int = field "integer" Json.int_opt in
  let num = field "number" Json.float_opt in
  let* cell = str "cell" in
  let* engine = str "engine" in
  let* arch = str "arch" in
  let* iters = int "iters" in
  let* repeats = int "repeats" in
  let* seconds = num "seconds" in
  let* mean_seconds = num "mean_seconds" in
  let* samples = field "array" Json.list_opt "samples" in
  let* samples =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        match Json.float_opt s with
        | Some f -> Ok (f :: acc)
        | None -> Error "row: non-numeric entry in \"samples\"")
      (Ok []) samples
    |> Result.map List.rev
  in
  let* kernel_insns = int "kernel_insns" in
  let perf =
    match Json.member "kernel_perf" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun n -> (name, n)) (Json.int_opt v))
        fields
    | _ -> []
  in
  let* status = str "status" in
  let note =
    Option.value ~default:""
      (Option.bind (Json.member "status_note" j) Json.string_opt)
  in
  Ok
    {
      row_cell = cell;
      row_engine = engine;
      row_arch = arch;
      row_iters = iters;
      row_repeats = repeats;
      row_seconds = seconds;
      row_mean_seconds = mean_seconds;
      row_samples = samples;
      row_kernel_insns = kernel_insns;
      row_perf = perf;
      row_status = status;
      row_note = note;
    }

let version_label dbt_config =
  match Sb_dbt.Version.name_of dbt_config with
  | Some name -> "dbt:" ^ name
  | None -> "dbt:custom"

(* Checkpoint store for fast-forwarded cells: shares the result cache's
   directory, so one --cache DIR gets both row caching and warm boots.
   Opened inside the worker (workers share it through the filesystem, the
   cache layer's atomic writes make that safe), and only when a switch
   point is set — a cold grid never touches checkpoint machinery. *)
let checkpoint_store ~config ~ckpt_dir =
  match (config.switch_at, ckpt_dir) with
  | Some _, Some dir -> Some (Simbench.Checkpoint.open_store ~dir)
  | _ -> None

let bench_targets benches =
  List.map (fun b -> (b.Simbench.Bench.name, Bench b)) benches

let kind_targets = function
  | `Suite -> bench_targets Simbench.Suite.all
  | `Workloads _ ->
    List.map
      (fun w -> (w.Sb_workloads.Workloads.name, Workload w))
      Sb_workloads.Workloads.all

(* One engine over named targets.  Runs inside a pool worker, so it must
   touch no shared mutable state.  With a switch point set, the first run
   of a bench fast-forwards setup once and every later (engine, repeat)
   run of the same bench restores that checkpoint: the store key excludes
   the timed engine (per-insn engines share one interpreter-produced boot;
   the block-granular DBT keeps its own, see {!Simbench.Harness.run}). *)
let compute_column ~config ~ckpt_dir ~arch ?iters targets (label, engine) =
  let checkpoints = checkpoint_store ~config ~ckpt_dir in
  List.map
    (fun (cell, target) ->
      measure ~label ~arch ~cell ~repeats:config.repeats ~scale:config.scale
        ?iters ?switch_at:config.switch_at ?checkpoints ~engine target)
    targets

let compute_cell ~config ~ckpt_dir ~arch ~kind dbt_config =
  let iters = match kind with `Suite -> None | `Workloads n -> Some n in
  compute_column ~config ~ckpt_dir ~arch ?iters (kind_targets kind)
    (version_label dbt_config, Simbench.Engines.dbt_configured arch dbt_config)

let key_of ~config ~arch ~kind dbt_config =
  {
    k_arch = arch;
    k_dbt = dbt_config;
    k_scale = config.scale;
    k_repeats = config.repeats;
    k_kind = kind;
    k_switch = switch_name config.switch_at;
  }

let cell_fingerprint ~config ~arch ~kind dbt_config =
  Cache.fingerprint
    ( "simbench-cell",
      arch,
      dbt_config,
      kind,
      config.scale,
      config.repeats,
      switch_name config.switch_at )

let cache_of opts = Option.map (fun dir -> Cache.create ~dir) opts.cache_dir

let kind_name = function `Suite -> "suite" | `Workloads _ -> "workloads"

let run_pool ~opts tasks =
  Pool.run ~jobs:opts.jobs ?cache:(cache_of opts) ?deadline:opts.deadline
    ~retries:opts.retries tasks

(* The rows of one pool task: a late success is marked retried, and a lost
   task (crash, timeout, quarantine) becomes one failure row per cell, so
   figures render with gaps and --json records what happened instead of
   the whole experiment aborting. *)
let rows_of_outcome ~arch ~label ~cells = function
  | Pool.Done rows -> rows
  | Pool.Retried (rows, n) -> List.map (mark_retried n) rows
  | Pool.Failed f ->
    Printf.eprintf "[sb-report] %s\n%!" (Pool.failure_message f);
    let arch = Simbench.Engines.arch_name arch in
    List.map (fun cell -> failure_row ~arch ~label ~cell f) cells

(* Compute any not-yet-memoized cells, farming them out to the pool.  One
   cell = one (dbt-version config, arch, suite-or-workloads) sweep; cells
   are the parallel unit because they are fully independent and their
   results are small marshallable rows. *)
let prefetch ?(opts = sequential) ~config cells =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun (arch, kind, dbt) ->
        let k = key_of ~config ~arch ~kind dbt in
        if Hashtbl.mem memo k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cells
  in
  if todo <> [] then begin
    let tasks =
      List.map
        (fun (arch, kind, dbt) ->
          Pool.task
            ~key:(cell_fingerprint ~config ~arch ~kind dbt)
            ~label:
              (Printf.sprintf "%s/%s/%s" (version_label dbt)
                 (Simbench.Engines.arch_name arch) (kind_name kind))
            (fun () ->
              compute_cell ~config ~ckpt_dir:opts.cache_dir ~arch ~kind dbt))
        todo
    in
    let results = run_pool ~opts tasks in
    List.iter2
      (fun (arch, kind, dbt) outcome ->
        let rows =
          rows_of_outcome ~arch ~label:(version_label dbt)
            ~cells:(List.map fst (kind_targets kind))
            outcome
        in
        Hashtbl.replace memo (key_of ~config ~arch ~kind dbt) rows)
      todo results
  end

let cell_rows ?opts ~config ~arch ~kind dbt_config =
  let k = key_of ~config ~arch ~kind dbt_config in
  let rows =
    match Hashtbl.find_opt memo k with
    | Some rows -> rows
    | None ->
      prefetch ?opts ~config [ (arch, kind, dbt_config) ];
      Hashtbl.find memo k
  in
  record rows;
  rows

let times_for ?opts ~arch ~config ~kind dbt_config =
  let k = key_of ~config ~arch ~kind dbt_config in
  match Hashtbl.find_opt times_memo k with
  | Some times ->
    record (Hashtbl.find memo k);
    times
  | None ->
    let times =
      List.map
        (fun r -> (r.row_cell, r.row_seconds))
        (cell_rows ?opts ~config ~arch ~kind dbt_config)
    in
    Hashtbl.replace times_memo k times;
    times

let suite_times_for_version ?opts ~arch ~config dbt_config =
  times_for ?opts ~arch ~config ~kind:`Suite dbt_config

let workload_times_for_version ?opts ~arch ~config dbt_config =
  times_for ?opts ~arch ~config
    ~kind:(`Workloads config.workload_iters)
    dbt_config

(* name -> seconds lookup table: the O(n^2) List.assoc aggregation the
   figures used to do is now one table build + O(1) probes *)
let times_tbl rows =
  let t = Hashtbl.create (List.length rows * 2) in
  List.iter (fun r -> Hashtbl.replace t r.row_cell r.row_seconds) rows;
  t

let tfind tbl name = try Hashtbl.find tbl name with Not_found -> nan

(* The twenty release names map onto a handful of distinct configurations;
   measure each configuration once. *)
let version_names = Sb_dbt.Version.names

let config_of_version name =
  match Sb_dbt.Version.find name with
  | Some c -> c
  | None -> invalid_arg ("unknown version " ^ name)

let baseline_dbt = config_of_version Sb_dbt.Version.baseline_name

let version_cells ~arch ~kind () =
  (arch, kind, baseline_dbt)
  :: List.map (fun v -> (arch, kind, config_of_version v)) version_names

(* ------------------------------------------------------------------ *)
(* Paper-engine columns (Figures 7 and the extension table)             *)
(* ------------------------------------------------------------------ *)

let column_fingerprint ~config ~arch ~tag (label, engine) =
  Cache.fingerprint
    ( "simbench-column",
      tag,
      label,
      Sb_sim.Engine.features engine,
      arch,
      config.scale,
      config.repeats,
      switch_name config.switch_at )

let engine_columns ~opts ~config ~arch ~tag ~benches engines =
  let targets = bench_targets benches in
  let tasks =
    List.map
      (fun (label, engine) ->
        Pool.task
          ~key:(column_fingerprint ~config ~arch ~tag (label, engine))
          ~label:
            (Printf.sprintf "%s/%s/%s" tag label
               (Simbench.Engines.arch_name arch))
          (fun () ->
            compute_column ~config ~ckpt_dir:opts.cache_dir ~arch targets
              (label, engine)))
      engines
  in
  let results = run_pool ~opts tasks in
  List.map2
    (fun (label, _) outcome ->
      let rows =
        rows_of_outcome ~arch ~label ~cells:(List.map fst targets) outcome
      in
      record rows;
      (label, times_tbl rows))
    engines results

(* ------------------------------------------------------------------ *)
(* Figure 2                                                             *)
(* ------------------------------------------------------------------ *)

let fig2 ?(config = default_config) ?(opts = sequential) () =
  let arch = Sb_isa.Arch_sig.Sba in
  let kind = `Workloads config.workload_iters in
  prefetch ~opts ~config (version_cells ~arch ~kind ());
  let base = times_tbl (cell_rows ~config ~arch ~kind baseline_dbt) in
  let per_version =
    List.map
      (fun v ->
        let tbl =
          times_tbl (cell_rows ~config ~arch ~kind (config_of_version v))
        in
        let speedups = Hashtbl.create 16 in
        Hashtbl.iter
          (fun name t ->
            Hashtbl.replace speedups name
              (Stats.speedup ~baseline:(tfind base name) t))
          tbl;
        (v, speedups))
      version_names
  in
  let series_of name = List.map (fun (_, s) -> tfind s name) per_version in
  let overall =
    List.map
      (fun (_, speedups) ->
        Stats.weighted_geomean
          (List.map
             (fun w ->
               ( tfind speedups w.Sb_workloads.Workloads.name,
                 w.Sb_workloads.Workloads.weight ))
             Sb_workloads.Workloads.all))
      per_version
  in
  "Figure 2: relative performance of sjeng and mcf and the overall SPEC\n\
   rating (weighted geometric mean) across QEMU-DBT versions (v1.7.0 = 1.0)\n\n"
  ^ Tablefmt.render_series ~x_label:"version" ~x_values:version_names
      [
        ("sjeng", series_of "sjeng");
        ("SPEC (overall)", overall);
        ("mcf", series_of "mcf");
      ]

(* ------------------------------------------------------------------ *)
(* Figure 3                                                             *)
(* ------------------------------------------------------------------ *)

let fig3 ?(config = default_config) () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let engine = Simbench.Engines.interp arch in
  let spec = Spec_density.measure ~arch ~iters:config.spec_density_iters () in
  let rows =
    List.map
      (fun bench ->
        let outcome = Simbench.Harness.run ~scale:config.scale ~support ~engine bench in
        [
          bench.Simbench.Bench.name
          ^ (if bench.Simbench.Bench.platform_specific then " +" else "");
          Simbench.Category.name bench.Simbench.Bench.category;
          string_of_int bench.Simbench.Bench.default_iters;
          Tablefmt.sci_cell (Simbench.Harness.density outcome);
          Tablefmt.sci_cell
            (Spec_density.density spec ~bench_name:bench.Simbench.Bench.name);
        ])
      Simbench.Suite.all
  in
  "Figure 3: the SimBench suite with default iteration counts and measured\n\
   operation densities (tested operations per kernel instruction), for the\n\
   suite itself and across the SPEC-analog workloads.  '+' marks benchmarks\n\
   with significant platform-specific portions.\n\n"
  ^ Tablefmt.render
      ~header:[ "Benchmark"; "Category"; "Iterations"; "SimBench"; "SPEC" ]
      rows

(* ------------------------------------------------------------------ *)
(* Figure 4                                                             *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  let engines = Simbench.Engines.paper_set Sb_isa.Arch_sig.Sba in
  let feature_keys =
    [
      "Execution Model";
      "Memory Access";
      "Code Generation";
      "Control Flow";
      "Interrupts";
      "Synchronous Exceptions";
      "Undefined Instruction";
    ]
  in
  let rows =
    List.map
      (fun key ->
        key
        :: List.map
             (fun (_, engine) ->
               match List.assoc_opt key (Sb_sim.Engine.features engine) with
               | Some v -> v
               | None -> "-")
             engines)
      feature_keys
  in
  let align =
    Tablefmt.Left :: List.map (fun _ -> Tablefmt.Left) engines
  in
  "Figure 4: implementation techniques of the evaluated platforms.\n\n"
  ^ Tablefmt.render ~align ~header:("Feature" :: List.map fst engines) rows

(* ------------------------------------------------------------------ *)
(* Figure 5                                                             *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  let rows =
    [
      [ "Host"; Printf.sprintf "OCaml %s (%s)" Sys.ocaml_version Sys.os_type ];
      [ "Word size"; string_of_int Sys.word_size ];
      [ "Guest ISAs"; "SBA-32 (ARM analog), VLX-32 (x86 analog)" ];
      [ "Guest RAM"; "32 MiB" ];
      [
        "Platforms";
        "dbt / interp / detailed / virt / native (QEMU-DBT / SimIt-ARM / \
         Gem5 / QEMU-KVM / hardware analogs)";
      ];
    ]
  in
  let align = [ Tablefmt.Left; Tablefmt.Left ] in
  "Figure 5: experimental environment (the paper's hardware table; here the\n\
   'hardware' is the simulator substrate itself, see DESIGN.md).\n\n"
  ^ Tablefmt.render ~align ~header:[ "Property"; "Value" ] rows

(* ------------------------------------------------------------------ *)
(* Figure 6                                                             *)
(* ------------------------------------------------------------------ *)

let fig6_arch ~config arch =
  let base = times_tbl (cell_rows ~config ~arch ~kind:`Suite baseline_dbt) in
  let per_version =
    List.map
      (fun v ->
        times_tbl (cell_rows ~config ~arch ~kind:`Suite (config_of_version v)))
      version_names
  in
  let speedup_series bench_name =
    List.map
      (fun tbl ->
        Stats.speedup ~baseline:(tfind base bench_name) (tfind tbl bench_name))
      per_version
  in
  let category_block category =
    let benches = Simbench.Suite.by_category category in
    let series =
      List.map
        (fun b -> (b.Simbench.Bench.name, speedup_series b.Simbench.Bench.name))
        benches
    in
    Printf.sprintf "%s — %s\n\n%s\n" (arch_label arch)
      (Simbench.Category.name category)
      (Tablefmt.render_series ~x_label:"version" ~x_values:version_names series)
  in
  String.concat "\n" (List.map category_block Simbench.Category.all)

let fig6 ?(config = default_config) ?(opts = sequential) () =
  prefetch ~opts ~config
    (version_cells ~arch:Sb_isa.Arch_sig.Sba ~kind:`Suite ()
    @ version_cells ~arch:Sb_isa.Arch_sig.Vlx ~kind:`Suite ());
  "Figure 6: SimBench speedups per category across QEMU-DBT versions\n\
   (v1.7.0 = 1.0; larger is faster).\n\n"
  ^ fig6_arch ~config Sb_isa.Arch_sig.Sba
  ^ "\n"
  ^ fig6_arch ~config Sb_isa.Arch_sig.Vlx

(* ------------------------------------------------------------------ *)
(* Figure 7                                                             *)
(* ------------------------------------------------------------------ *)

let fig7_arch ~config ~opts arch =
  let engines = Simbench.Engines.paper_set arch in
  let columns =
    engine_columns ~opts ~config ~arch ~tag:"fig7" ~benches:Simbench.Suite.all
      engines
  in
  let rows =
    List.map
      (fun bench ->
        let name = bench.Simbench.Bench.name in
        let iters =
          max 10 (bench.Simbench.Bench.default_iters / config.scale)
        in
        (name :: string_of_int iters
        :: List.map
             (fun (_, tbl) -> Printf.sprintf "%.4f" (tfind tbl name))
             columns))
      Simbench.Suite.all
  in
  Printf.sprintf "%s (kernel seconds; iterations = Figure 3 counts / %d)\n\n%s"
    (arch_label arch) config.scale
    (Tablefmt.render
       ~header:(("Benchmark" :: "Iters" :: List.map fst columns))
       rows)

let fig7 ?(config = default_config) ?(opts = sequential) () =
  "Figure 7: SimBench runtimes on every platform.\n\n"
  ^ fig7_arch ~config ~opts Sb_isa.Arch_sig.Sba
  ^ "\n\n"
  ^ fig7_arch ~config ~opts Sb_isa.Arch_sig.Vlx

(* ------------------------------------------------------------------ *)
(* Figure 8                                                             *)
(* ------------------------------------------------------------------ *)

let fig8 ?(config = default_config) ?(opts = sequential) () =
  let arch = Sb_isa.Arch_sig.Sba in
  let wl = `Workloads config.workload_iters in
  prefetch ~opts ~config
    (version_cells ~arch ~kind:`Suite () @ version_cells ~arch ~kind:wl ());
  let base_suite = times_tbl (cell_rows ~config ~arch ~kind:`Suite baseline_dbt) in
  let base_workloads = times_tbl (cell_rows ~config ~arch ~kind:wl baseline_dbt) in
  let geo ~kind ~base version =
    let rows = cell_rows ~config ~arch ~kind (config_of_version version) in
    Stats.geomean
      (List.map
         (fun r ->
           Stats.speedup ~baseline:(tfind base r.row_cell) r.row_seconds)
         rows)
  in
  "Figure 8: geometric-mean speedup of the SPEC-analog workloads and of\n\
   SimBench across QEMU-DBT versions (v1.7.0 = 1.0).\n\n"
  ^ Tablefmt.render_series ~x_label:"version" ~x_values:version_names
      [
        ("SPEC", List.map (geo ~kind:wl ~base:base_workloads) version_names);
        ("SimBench", List.map (geo ~kind:`Suite ~base:base_suite) version_names);
      ]

let extensions ?(config = default_config) ?(opts = sequential) () =
  let arch = Sb_isa.Arch_sig.Sba in
  let engines = Simbench.Engines.paper_set arch in
  let columns =
    engine_columns ~opts ~config ~arch ~tag:"ext"
      ~benches:Simbench.Suite_ext.all engines
  in
  let rows =
    List.map
      (fun bench ->
        bench.Simbench.Bench.name
        :: List.map
             (fun (_, tbl) ->
               Printf.sprintf "%.4f" (tfind tbl bench.Simbench.Bench.name))
             columns)
      Simbench.Suite_ext.all
  in
  "Extension benchmarks (the paper's future work): kernel seconds.\n\n"
  ^ Tablefmt.render
      ~header:("Benchmark" :: List.map fst engines)
      rows

(* ------------------------------------------------------------------ *)
(* Synthetic fault cells                                                 *)
(* ------------------------------------------------------------------ *)

(* A deliberately healthy / crashing / hanging trio driven through the
   pool: proves end-to-end that a bench run with poisoned cells completes
   under the deadline, exits cleanly, and reports the failures as per-cell
   status data.  The CI chaos smoke job runs this with --deadline and
   greps the JSON for the "failed" and "timeout" statuses. *)
let synthetic_faults ?(opts = sequential) () =
  let deadline = match opts.deadline with Some d -> d | None -> 10.0 in
  (* at least two workers so the healthy cell finishes while the hung one
     is still burning its deadline *)
  let jobs = max 2 opts.jobs in
  let tasks =
    [
      ( "ok",
        Pool.task ~label:"synthetic/ok" (fun () ->
            let t0 = Unix.gettimeofday () in
            let rec spin n acc =
              if n = 0 then acc else spin (n - 1) (acc lxor n)
            in
            ignore (spin 5_000_000 0);
            Unix.gettimeofday () -. t0) );
      ( "crash",
        Pool.task ~label:"synthetic/crash" (fun () ->
            failwith "injected crash (synthetic-faults)") );
      ( "hang",
        Pool.task ~label:"synthetic/hang" (fun () ->
            Unix.sleepf 600.0;
            nan) );
    ]
  in
  let stats = Pool.stats () in
  let outcomes =
    Pool.run ~jobs ~stats ~deadline ~retries:opts.retries (List.map snd tasks)
  in
  let ok_row cell v =
    {
      row_cell = cell;
      row_engine = "synthetic";
      row_arch = "host";
      row_iters = 1;
      row_repeats = 1;
      row_seconds = v;
      row_mean_seconds = v;
      row_samples = [ v ];
      row_kernel_insns = 0;
      row_perf = [];
      row_status = "ok";
      row_note = "";
    }
  in
  let rows =
    List.map2
      (fun (cell, _) -> function
        | Pool.Done v -> ok_row cell v
        | Pool.Retried (v, n) -> mark_retried n (ok_row cell v)
        | Pool.Failed f -> failure_row ~arch:"host" ~label:"synthetic" ~cell f)
      tasks outcomes
  in
  record rows;
  let table =
    Tablefmt.render
      ~align:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Left ]
      ~header:[ "Cell"; "Status"; "Seconds"; "Note" ]
      (List.map
         (fun r ->
           [
             r.row_cell;
             r.row_status;
             (if Float.is_nan r.row_seconds then "-"
              else Printf.sprintf "%.4f" r.row_seconds);
             r.row_note;
           ])
         rows)
  in
  Printf.sprintf
    "Synthetic fault harness check (deadline %.1fs, %d jobs):\n\n\
     %s\n\
     pool: %d executed, %d failed, %d timed out, %d retried, %d quarantined\n"
    deadline jobs table stats.Pool.executed stats.Pool.failed
    stats.Pool.timed_out stats.Pool.retried stats.Pool.quarantined

let all ?(config = default_config) ?(opts = sequential) () =
  (* one prefetch of the union before rendering: with -j N the whole
     version sweep (both kinds, both guests) fills the pool at once *)
  prefetch ~opts ~config
    (version_cells ~arch:Sb_isa.Arch_sig.Sba ~kind:`Suite ()
    @ version_cells ~arch:Sb_isa.Arch_sig.Vlx ~kind:`Suite ()
    @ version_cells ~arch:Sb_isa.Arch_sig.Sba
        ~kind:(`Workloads config.workload_iters) ());
  String.concat "\n\n"
    [
      fig2 ~config ~opts ();
      fig3 ~config ();
      fig4 ();
      fig5 ();
      fig6 ~config ~opts ();
      fig7 ~config ~opts ();
      fig8 ~config ~opts ();
      extensions ~config ~opts ();
    ]
