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

let measure ~label ~arch ~repeats ?scale ?iters ?switch_at ?checkpoints
    ~engine bench =
  let support = Simbench.Engines.support arch in
  let run1 () =
    Simbench.Harness.run ?scale ?iters ?switch_at ?checkpoints ~support ~engine
      bench
  in
  let o = run1 () in
  let rec more acc n =
    if n = 0 then List.rev acc
    else more ((run1 ()).Simbench.Harness.kernel_seconds :: acc) (n - 1)
  in
  let repeats = max 1 repeats in
  let times = more [ o.Simbench.Harness.kernel_seconds ] (repeats - 1) in
  {
    row_cell = bench.Simbench.Bench.name;
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

(* ------------------------------------------------------------------ *)
(* Columns: every figure, version sweep and ablation measures here      *)
(* ------------------------------------------------------------------ *)

type cell = { bench : Simbench.Bench.t; iters : int option }

type column = {
  label : string;
  arch : Sb_isa.Arch_sig.arch_id;
  engine : unit -> Sb_sim.Engine.t;
  cells : cell list;
  key : string option;
}

let bench_cells benches = List.map (fun b -> { bench = b; iters = None }) benches

let suite_cells = bench_cells Simbench.Suite.all

let workload_cells n =
  List.map
    (fun w -> { bench = w.Sb_workloads.Workloads.bench; iters = Some n })
    Sb_workloads.Workloads.all

let version_column ~arch cells dbt_config =
  {
    label = version_label dbt_config;
    arch;
    engine = (fun () -> Simbench.Engines.dbt_configured arch dbt_config);
    cells;
    key = Some (Cache.fingerprint dbt_config);
  }

(* A paper engine is a module pack, which cannot be fingerprinted; what
   names and describes it can: the experiment tag, the column label and
   the feature row. *)
let paper_columns ~tag ~arch cells =
  List.map
    (fun (label, engine) ->
      {
        label;
        arch;
        engine = (fun () -> engine);
        cells;
        key =
          Some (Cache.fingerprint (tag, label, Sb_sim.Engine.features engine));
      })
    (Simbench.Engines.paper_set arch)

(* The one report key, of the memo and the disk cache alike.  Cold and
   fast-forwarded columns are distinct measurements. *)
let column_key ~config c =
  Option.map
    (fun identity ->
      Cache.fingerprint
        ( "simbench-column",
          identity,
          c.arch,
          List.map
            (fun cell -> (cell.bench.Simbench.Bench.name, cell.iters))
            c.cells,
          config.scale,
          config.repeats,
          switch_name config.switch_at ))
    c.key

let memo : (string, row list) Hashtbl.t = Hashtbl.create 64

let reset_memo () = Hashtbl.reset memo

(* One column, inside a pool worker: it builds its engine there and must
   touch no shared mutable state.  With a switch point set, the first run
   of a bench fast-forwards setup once and every later (column, repeat)
   run of the same bench restores that checkpoint: the store key excludes
   the timed engine (per-insn engines share one interpreter-produced boot;
   the block-granular DBT keeps its own, see {!Simbench.Harness.run}). *)
let run_column ~config ~ckpt_dir c =
  let checkpoints = checkpoint_store ~config ~ckpt_dir in
  let engine = c.engine () in
  List.map
    (fun cell ->
      measure ~label:c.label ~arch:c.arch ~repeats:config.repeats
        ~scale:config.scale ?iters:cell.iters ?switch_at:config.switch_at
        ?checkpoints ~engine cell.bench)
    c.cells

(* The rows of one column's pool task: a late success is marked retried,
   and a lost task (crash, timeout, quarantine) becomes one failure row per
   cell, so figures render with gaps and --json records what happened
   instead of the whole experiment aborting. *)
let rows_of_outcome c = function
  | Pool.Done rows -> rows
  | Pool.Retried (rows, n) -> List.map (mark_retried n) rows
  | Pool.Failed f ->
    Printf.eprintf "[sb-report] %s\n%!" (Pool.failure_message f);
    let arch = Simbench.Engines.arch_name c.arch in
    List.map
      (fun cell ->
        failure_row ~arch ~label:c.label ~cell:cell.bench.Simbench.Bench.name f)
      c.cells

(* Columns are the parallel unit: each is independent and its result is a
   small marshallable row list.  One pool pass runs every unkeyed column
   and every keyed one not yet memoized, once per key. *)
let columns ?(opts = sequential) ~config cols =
  let cols = List.mapi (fun i c -> (i, c, column_key ~config c)) cols in
  let queued = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun (_, _, key) ->
        match key with
        | None -> true
        | Some k when Hashtbl.mem memo k || Hashtbl.mem queued k -> false
        | Some k ->
          Hashtbl.add queued k ();
          true)
      cols
  in
  let outcomes =
    (* a pass of memo hits opens no cache: [Cache.create] sweeps the
       directory *)
    if todo = [] then []
    else
      Pool.run ~jobs:opts.jobs
        ?cache:(Option.map (fun dir -> Cache.create ~dir) opts.cache_dir)
        ?deadline:opts.deadline ~retries:opts.retries
        (List.map
           (fun (_, c, key) ->
             Pool.task ?key
               ~label:(c.label ^ "/" ^ Simbench.Engines.arch_name c.arch)
               (fun () -> run_column ~config ~ckpt_dir:opts.cache_dir c))
           todo)
  in
  (* rows of this pass's unkeyed columns, by position *)
  let fresh = Hashtbl.create 8 in
  List.iter2
    (fun (i, c, key) outcome ->
      let rows = rows_of_outcome c outcome in
      match key with
      | Some k -> Hashtbl.replace memo k rows
      | None -> Hashtbl.replace fresh i rows)
    todo outcomes;
  List.map
    (fun (i, _, key) ->
      let rows =
        match key with
        | Some k -> Hashtbl.find memo k
        | None -> Hashtbl.find fresh i
      in
      record rows;
      rows)
    cols

(* name -> seconds lookup table: the O(n^2) List.assoc aggregation the
   figures used to do is now one table build + O(1) probes *)
let times_tbl rows =
  let t = Hashtbl.create (List.length rows * 2) in
  List.iter (fun r -> Hashtbl.replace t r.row_cell r.row_seconds) rows;
  t

let tfind tbl name = try Hashtbl.find tbl name with Not_found -> nan

(* The twenty release names map onto a handful of distinct configurations;
   the memo measures each configuration once. *)
let version_names = Sb_dbt.Version.names

let config_of_version name =
  match Sb_dbt.Version.find name with
  | Some c -> c
  | None -> invalid_arg ("unknown version " ^ name)

let baseline_dbt = config_of_version Sb_dbt.Version.baseline_name

let version_columns ~arch cells =
  List.map
    (version_column ~arch cells)
    (baseline_dbt :: List.map config_of_version version_names)

let version_sweep config =
  version_columns ~arch:Sb_isa.Arch_sig.Sba suite_cells
  @ version_columns ~arch:Sb_isa.Arch_sig.Vlx suite_cells
  @ version_columns ~arch:Sb_isa.Arch_sig.Sba
      (workload_cells config.workload_iters)

(* one guest's sweep over [cells]: the baseline's rows, then each
   release's in [version_names] order *)
let sweep ?opts ~config ~arch cells =
  match columns ?opts ~config (version_columns ~arch cells) with
  | base :: releases -> (base, releases)
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Figure 2                                                             *)
(* ------------------------------------------------------------------ *)

let fig2 ?(config = default_config) ?(opts = sequential) () =
  let base, releases =
    sweep ~opts ~config ~arch:Sb_isa.Arch_sig.Sba
      (workload_cells config.workload_iters)
  in
  let base = times_tbl base in
  let per_version =
    List.map
      (fun rows ->
        let speedups = Hashtbl.create 16 in
        Hashtbl.iter
          (fun name t ->
            Hashtbl.replace speedups name
              (Stats.speedup ~baseline:(tfind base name) t))
          (times_tbl rows);
        speedups)
      releases
  in
  let series_of name = List.map (fun s -> tfind s name) per_version in
  let overall =
    List.map
      (fun speedups ->
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
  let base, releases = sweep ~config ~arch suite_cells in
  let base = times_tbl base in
  let per_version = List.map times_tbl releases in
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
  (* both guests in one pool pass; each block then reads the memo *)
  ignore
    (columns ~opts ~config
       (version_columns ~arch:Sb_isa.Arch_sig.Sba suite_cells
       @ version_columns ~arch:Sb_isa.Arch_sig.Vlx suite_cells));
  "Figure 6: SimBench speedups per category across QEMU-DBT versions\n\
   (v1.7.0 = 1.0; larger is faster).\n\n"
  ^ fig6_arch ~config Sb_isa.Arch_sig.Sba
  ^ "\n"
  ^ fig6_arch ~config Sb_isa.Arch_sig.Vlx

(* ------------------------------------------------------------------ *)
(* Figure 7                                                             *)
(* ------------------------------------------------------------------ *)

let fig7_arch ~config ~opts arch =
  let cols = paper_columns ~tag:"fig7" ~arch suite_cells in
  let tables = List.map times_tbl (columns ~opts ~config cols) in
  let rows =
    List.map
      (fun bench ->
        let name = bench.Simbench.Bench.name in
        let iters = Simbench.Harness.default_iters ~scale:config.scale bench in
        (name :: string_of_int iters
        :: List.map
             (fun tbl -> Printf.sprintf "%.4f" (tfind tbl name))
             tables))
      Simbench.Suite.all
  in
  Printf.sprintf "%s (kernel seconds; iterations = Figure 3 counts / %d)\n\n%s"
    (arch_label arch) config.scale
    (Tablefmt.render
       ~header:("Benchmark" :: "Iters" :: List.map (fun c -> c.label) cols)
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
  let wl = workload_cells config.workload_iters in
  (* both sweeps in one pool pass; [geo] then reads the memo *)
  ignore
    (columns ~opts ~config
       (version_columns ~arch suite_cells @ version_columns ~arch wl));
  let geo cells =
    let base, releases = sweep ~config ~arch cells in
    let base = times_tbl base in
    List.map
      (fun rows ->
        Stats.geomean
          (List.map
             (fun r ->
               Stats.speedup ~baseline:(tfind base r.row_cell) r.row_seconds)
             rows))
      releases
  in
  "Figure 8: geometric-mean speedup of the SPEC-analog workloads and of\n\
   SimBench across QEMU-DBT versions (v1.7.0 = 1.0).\n\n"
  ^ Tablefmt.render_series ~x_label:"version" ~x_values:version_names
      [ ("SPEC", geo wl); ("SimBench", geo suite_cells) ]

let extensions ?(config = default_config) ?(opts = sequential) () =
  let cols =
    paper_columns ~tag:"ext" ~arch:Sb_isa.Arch_sig.Sba
      (bench_cells Simbench.Suite_ext.all)
  in
  let tables = List.map times_tbl (columns ~opts ~config cols) in
  let rows =
    List.map
      (fun bench ->
        bench.Simbench.Bench.name
        :: List.map
             (fun tbl ->
               Printf.sprintf "%.4f" (tfind tbl bench.Simbench.Bench.name))
             tables)
      Simbench.Suite_ext.all
  in
  "Extension benchmarks (the paper's future work): kernel seconds.\n\n"
  ^ Tablefmt.render
      ~header:("Benchmark" :: List.map (fun c -> c.label) cols)
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
