(* The metric catalogue and the result of one run.  BENCHMARK.json at the
   repository root lists the same names with their regression bounds; the
   perf-smoke alias checks that the two agree. *)

module J = Sb_util.Json

type def = { name : string; unit : string; better : Perf_stats.better }

let d name unit better = { name; unit; better }

let end_to_end =
  Perf_stats.
    [
      d "setup_s" "s" Lower;
      d "wall_s" "s" Lower;
      d "kernel_mips" "MIPS" Higher;
      d "latency_p50_ms" "ms" Lower;
      d "latency_p95_ms" "ms" Lower;
      d "max_rss_mb" "MiB" Lower;
    ]

(* Per-pass counters: kernel-phase Perf counters summed over one pass of the
   workload's cells.  They repeat exactly for a given seed. *)
let counters =
  Sb_sim.Perf.
    [
      ("sim.kernel_insns", None, [ Insns ]);
      ("sim.exceptions", None, [ Exceptions_total ]);
      ("dbt.blocks_translated", Some "dbt", [ Blocks_translated ]);
      ("dbt.opt_passes_run", Some "dbt", [ Opt_passes_run ]);
      ("dbt.opstream_bytes", Some "dbt", [ Opstream_bytes ]);
      ("dbt.block_lookups", Some "dbt", [ Block_lookups ]);
      ("dbt.chain_follows", Some "dbt", [ Chain_follows ]);
      ("dbt.front_cache_hits", Some "dbt", [ Front_cache_hits ]);
      ("dbt.trace_dispatches", Some "dbt", [ Trace_dispatches ]);
      ("dbt.trace_side_exits", Some "dbt", [ Trace_side_exits ]);
      ("dbt.smc_invalidations", Some "dbt", [ Smc_invalidations ]);
      ("dbt.spills", Some "dbt", [ Spills ]);
      ("interp.decodes", Some "interp", [ Decodes ]);
      ("interp.front_cache_hits", Some "interp", [ Front_cache_hits ]);
      ("virt.vm_exits", Some "virt", [ Vm_exits ]);
      ("mem.io_accesses", None, [ Io_reads; Io_writes ]);
      ("mmu.walks", None, [ Mmu_walks ]);
      ("mmu.walk_levels", None, [ Walk_levels ]);
      ("mmu.tlb_hits", None, [ Tlb_hit ]);
      ("mmu.tlb_miss", None, [ Tlb_miss ]);
      ("mmu.tlb_fast_hits", None, [ Tlb_fast_hits ]);
    ]

let categories =
  Simbench.Category.
    [
      ("code-generation", Code_generation);
      ("control-flow", Control_flow);
      ("exception-handling", Exception_handling);
      ("io", Io);
      ("memory-system", Memory_system);
    ]

let per_layer =
  Perf_stats.(
    [
      d "core.harness.build_s" "s" Lower;
      d "core.harness.phase_s" "s" Lower;
      d "sim.kernel_s" "s" Lower;
    ]
    @ List.map (fun (c, _) -> d ("kernel_s." ^ c) "s" Lower) categories
    @ [
        d "trace.wall_s" "s" Lower;
        d "serve.row_cached_ms.p50" "ms" Lower;
        d "serve.job_ms.p50" "ms" Lower;
        d "serve.job_ms.p95" "ms" Lower;
        d "serve.non_kernel_ms.p50" "ms" Lower;
        d "serve.dedup_ratio" "ratio" Higher;
        d "serve.simulated" "count" Lower;
        d "serve.deduplicated" "count" Higher;
        d "serve.clients_dropped" "count" Lower;
        d "jobs.pool.forked" "count" Lower;
        d "jobs.cache.evictions" "count" Lower;
        d "core.platform.machine_ms" "ms" Lower;
        d "core.rt.program_ms" "ms" Lower;
        d "core.ckpt.populate_s" "s" Lower;
        d "core.ckpt.save_ms" "ms" Lower;
        d "core.ckpt.load_ms" "ms" Lower;
        d "sim.snapshot.save_ms" "ms" Lower;
        d "sim.snapshot.restore_ms" "ms" Lower;
        d "sim.snapshot.pages" "count" Lower;
        d "jobs.cache.store_ms" "ms" Lower;
        d "jobs.cache.load_ms" "ms" Lower;
        d "jobs.cache.bytes" "bytes" Lower;
        d "serve.protocol.encode_us" "us" Lower;
        d "serve.protocol.decode_us" "us" Lower;
      ]
    @ List.map
        (fun f -> d (Printf.sprintf "probe.%s.kernel_ms" f) "ms" Lower)
        [ "interp"; "dbt"; "detailed"; "virt"; "native" ]
    @ List.map
        (fun (n, _, _) ->
          d n (if n = "dbt.opstream_bytes" then "bytes" else "count") Lower)
        counters
    @ [
        d "dbt.chain_ratio" "ratio" Higher;
        d "dbt.front_cache_hit_ratio" "ratio" Higher;
        d "mmu.fast_hit_ratio" "ratio" Higher;
      ])

(* Per-pass counters for [family]-filtered cells, plus the derived ratios. *)
let counter_values (cells : (string * Sb_sim.Perf.t) list) =
  let sum (_, fam, cs) =
    List.fold_left
      (fun acc (family, p) ->
        if fam = None || fam = Some family then
          List.fold_left (fun acc c -> acc + Sb_sim.Perf.get p c) acc cs
        else acc)
      0 cells
  in
  let values = List.map (fun ((n, _, _) as c) -> (n, sum c)) counters in
  let v n = float_of_int (List.assoc n values) in
  let ratio a b = if b = 0. then 0. else a /. b in
  ( values,
    [
      ( "dbt.chain_ratio",
        ratio (v "dbt.chain_follows")
          (v "dbt.chain_follows" +. v "dbt.block_lookups") );
      ( "dbt.front_cache_hit_ratio",
        ratio (v "dbt.front_cache_hits") (v "dbt.block_lookups") );
      ( "mmu.fast_hit_ratio",
        ratio (v "mmu.tlb_fast_hits")
          (v "mmu.tlb_fast_hits" +. v "mmu.tlb_hits" +. v "mmu.tlb_miss") );
    ] )

(* What a workload's run measured, before the probes. *)
type measured = {
  e2e : (string * float) list;
  layer : (string * float) list;
  exact : (string * int) list;  (** counters that repeat for a seed *)
  samples : int;  (** executions (grids) or simulated rows (serve) behind the latencies *)
}

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** first few failure messages *)
  values : (string * float) list;  (** every metric measured *)
  exact : (string * int) list;  (** counters that repeat for a seed *)
}

let unit_of name =
  match
    List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
  with
  | Some m -> m.unit
  | None -> ""

(* Full-precision float for the result line: comparisons across runs need
   the raw values, so nothing is rounded. *)
let num f =
  if Float.is_integer f then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let printed r =
  List.filter_map
    (fun m -> Option.map (fun v -> (m.name, v)) (List.assoc_opt m.name r.values))
    (if r.traced then per_layer else end_to_end)

let result_line r =
  let metrics =
    printed r
    |> List.map (fun (n, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v)
             (unit_of n))
    |> String.concat ", "
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed metrics

let to_json r =
  J.Obj
    [
      ("schema", J.String "simbench-perf-1");
      ("workload", J.String r.workload);
      ("seed", J.Int r.seed);
      ("seconds", J.Float r.seconds);
      ("traced", J.Bool r.traced);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("failures", J.List (List.map (fun s -> J.String s) r.failures));
      ("metrics", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) r.values));
      ("exact", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) r.exact));
    ]

let of_json j =
  let str k = Option.bind (J.member k j) J.string_opt in
  let int k = Option.bind (J.member k j) J.int_opt in
  let obj k f =
    match J.member k j with
    | Some (J.Obj l) ->
      List.filter_map (fun (n, v) -> Option.map (fun x -> (n, x)) (f v)) l
    | _ -> []
  in
  match (str "schema", str "workload", int "seed") with
  | Some "simbench-perf-1", Some workload, Some seed ->
    Ok
      {
        workload;
        seed;
        seconds =
          Option.value ~default:nan
            (Option.bind (J.member "seconds" j) J.float_opt);
        traced = J.member "traced" j = Some (J.Bool true);
        attempted = Option.value ~default:0 (int "attempted");
        failed = Option.value ~default:0 (int "failed");
        failures = [];
        values = obj "metrics" J.float_opt;
        exact = obj "exact" J.int_opt;
      }
  | _ -> Error "not a simbench-perf-1 run record"
