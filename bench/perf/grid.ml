(* The three grid workloads: sequential cells run in this process through
   Simbench.Harness, each timed from outside.  Every execution yields one
   {!exec} record, from which every grid metric is computed; the spans
   recorded beside it only feed --trace-file. *)

module H = Simbench.Harness
module E = Simbench.Engines

type target = Bench of Simbench.Bench.t | App of Sb_workloads.Workloads.t

type cell = {
  arch : Sb_isa.Arch_sig.arch_id;
  engine : string;  (** engine label in reference keys and spans *)
  make : unit -> Sb_sim.Engine.t;
      (** called per execution: a configured DBT is a fresh instance, the
          registry engines are shared *)
  target : target;
  iters : int;
  warm : bool;  (** resume from the checkpoint store at kernel start *)
}

(* One execution of a cell: host seconds of the Harness.run call, split
   into what runs before the engine starts (program assembly, machine
   build, checkpoint restore), the engine's set-up and clean-up phases,
   and the kernel. *)
type exec = {
  cell : cell;
  key : string;
  total : float;
  build : float;
  phase : float;
  kernel : float;
}

let arch_name = Sb_serve.Protocol.arch_name

let target_name = function
  | Bench b -> b.Simbench.Bench.name
  | App w -> w.Sb_workloads.Workloads.name

let category = function
  | Bench b -> b.Simbench.Bench.category
  | App _ -> Simbench.Category.Application

let family engine =
  let n = Sb_sim.Engine.name engine in
  match String.index_opt n '-' with Some i -> String.sub n 0 i | None -> n

let cell_key (ctx : Ctx.t) c =
  Reference.key ~workload:ctx.workload ~arch:(arch_name c.arch)
    ~engine:c.engine ~cell:(target_name c.target)

let mode c = if c.warm then "warm" else "cold"

(* The Harness default iteration count at [scale]. *)
let bench_iters ~scale b = max 10 (b.Simbench.Bench.default_iters / scale)

(* Split [total] host seconds by the engine's own [wall] and [kernel]
   durations, clamped so the three parts are never negative and always sum
   to [total]. *)
let split ~total ~wall ~kernel =
  let wall = Float.min (Float.max wall 0.) total in
  let kernel = Float.min (Float.max kernel 0.) wall in
  (total -. wall, wall -. kernel, kernel)

(* One execution of [c], checked under [key] (by default the workload's
   reference key of the cell). *)
let run_cell (ctx : Ctx.t) ~phase ?(parent = 0) ?store ?key c =
  let engine = c.make () in
  let support = E.support c.arch in
  let switch_at, checkpoints =
    if c.warm then (Some Simbench.Checkpoint.Kernel_phase, store)
    else (None, None)
  in
  let key = match key with Some k -> k | None -> cell_key ctx c in
  let start = Spans.now () in
  let r =
    match
      match c.target with
      | Bench b ->
        H.run ~iters:c.iters ?switch_at ?checkpoints ~support ~engine b
      | App w ->
        Sb_workloads.Workloads.run ~iters:c.iters ?switch_at ?checkpoints
          ~support ~engine w
    with
    | o -> Ok o
    | exception H.Benchmark_failed msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let stop = Spans.now () in
  Ctx.check ctx ~key (Result.map (fun o -> o.H.kernel_insns) r);
  let exec =
    match r with
    | Error _ -> None
    | Ok o ->
      let res = o.H.result in
      let total = stop -. start in
      let build, phase_s, kernel =
        split ~total ~wall:res.Sb_sim.Run_result.wall_seconds
          ~kernel:o.H.kernel_seconds
      in
      if not (Hashtbl.mem ctx.perf (key, c.warm)) then
        Option.iter
          (fun p -> Hashtbl.replace ctx.perf (key, c.warm) (family engine, p))
          res.Sb_sim.Run_result.kernel_perf;
      Some { cell = c; key; total; build; phase = phase_s; kernel }
  in
  (* the trace: the call, and derived children laid end to end *)
  let args =
    [
      ("phase", phase);
      ("cell", key);
      ("mode", mode c);
      ("engine", c.engine);
      ("arch", arch_name c.arch);
      ("category", Simbench.Category.name (category c.target));
    ]
  in
  let id = Spans.fresh ctx.spans in
  Spans.record ctx.spans ~id ~parent ~args "cell" ~start ~stop;
  Option.iter
    (fun e ->
      let child = Spans.add ctx.spans ~parent:id ~derived:true ~args in
      let run_start = start +. e.build in
      ignore (child "harness.build" ~start ~stop:run_start);
      let run_id = child "engine.run" ~start:run_start ~stop in
      (* the kernel sits between the engine's setup and cleanup phases,
         whose split is not reported: centre it *)
      let k_start = run_start +. (e.phase /. 2.) in
      ignore
        (Spans.add ctx.spans ~parent:run_id ~derived:true ~args "engine.kernel"
           ~start:k_start ~stop:(k_start +. e.kernel)))
    exec;
  (* Each cell leaves a 32 MiB machine behind, and every registry engine
     keeps its last one alive.  Left to its own pacing the major GC lets a
     grid grow past 1 GiB, so a major cycle is finished after every cell,
     outside the timed region. *)
  Gc.major ();
  exec

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                 *)
(* ------------------------------------------------------------------ *)

let cold ~arch ~engine ~make target iters =
  { arch; engine; make; target; iters; warm = false }

(* The Figure 6 sweep on the SBA ISA, as in the paper: every distinct
   configuration in the release table (aliased releases share one) over
   the 18 suite benches. *)
let distinct_configs () =
  List.fold_left
    (fun acc (name, cfg) ->
      if List.exists (fun (_, c) -> c = cfg) acc then acc else acc @ [ (name, cfg) ])
    [] Sb_dbt.Version.all

let dbt_sweep ~scale =
  let arch = Sb_isa.Arch_sig.Sba in
  List.concat_map
    (fun (name, cfg) ->
      List.map
        (fun b ->
          cold ~arch ~engine:("dbt@" ^ name)
            ~make:(fun () -> E.dbt_configured arch cfg)
            (Bench b) (bench_iters ~scale b))
        Simbench.Suite.all)
    (distinct_configs ())

(* The Figure 7 grid: the paper's engine columns on both ISAs. *)
let engine_grid ~scale =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun (label, engine) ->
          List.map
            (fun b ->
              cold ~arch ~engine:label ~make:(fun () -> engine) (Bench b)
                (bench_iters ~scale b))
            Simbench.Suite.all)
        (E.paper_set arch))
    E.all_arches

(* Cells whose kernel is small next to their setup, each run cold and warm
   (resumed from the checkpoint store at kernel start): the SPEC-analog
   workloads at two kernel passes and one suite bench per category at
   [scale], on one ISA so that the store fill stays short enough to
   repeat. *)
let setup_heavy ~scale ~app_iters =
  let arch = Sb_isa.Arch_sig.Sba in
  let targets =
    List.map (fun w -> (App w, app_iters)) Sb_workloads.Workloads.all
    @ List.map
        (fun b -> (Bench b, bench_iters ~scale b))
        Simbench.Suite.
          [
            small_blocks;
            inter_page_indirect;
            system_call;
            memory_mapped_device;
            tlb_flush;
          ]
  in
  List.concat_map
    (fun (label, engine) ->
      List.concat_map
        (fun (target, iters) ->
          let c = cold ~arch ~engine:label ~make:(fun () -> engine) target iters in
          [ c; { c with warm = true } ])
        targets)
    [ ("interp", E.interp arch); ("detailed", E.detailed arch); ("dbt", E.dbt arch) ]

(* The perf-smoke alias keeps three benches (or mcf) on the first two
   engine columns of one ISA. *)
let smoke_filter cells =
  let keep = [ "Small Blocks"; "System Call"; "TLB Flush"; "mcf" ] in
  let columns =
    List.sort_uniq compare (List.map (fun c -> c.engine) cells)
    |> List.filteri (fun i _ -> i < 2)
  in
  List.filter
    (fun c ->
      c.arch = Sb_isa.Arch_sig.Sba
      && List.mem (target_name c.target) keep
      && List.mem c.engine columns)
    cells

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)
(* ------------------------------------------------------------------ *)

(* Set-up for the plain grids: the first cell of every engine column,
   untimed, so engine instantiation and lazy initialisation are paid before
   the measured phase. *)
let warm_up (ctx : Ctx.t) cells =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem seen (c.arch, c.engine)) then begin
        Hashtbl.add seen (c.arch, c.engine) ();
        ignore (run_cell ctx ~phase:"setup" c)
      end)
    cells;
  None

(* Set-up for setup-heavy: fill a fresh checkpoint store by running every
   warm cell once.  The measured phase reopens it with a fresh handle, so
   its first restores read from disk. *)
let fill_store (ctx : Ctx.t) cells =
  let dir = Filename.concat ctx.work "ckpt" in
  let store = Simbench.Checkpoint.open_store ~dir in
  List.iter
    (fun c -> if c.warm then ignore (run_cell ctx ~phase:"setup" ~store c))
    cells;
  Some dir

(* One set-up, timed: the first thing a fresh process does, so it pays
   every one-time cost (lazy initialisation, machine pools, memos). *)
let time_setup (ctx : Ctx.t) cells ~setup =
  let t0 = Spans.now () in
  let dir = setup ctx cells in
  (Spans.now () -. t0, dir)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let sum f execs = List.fold_left (fun acc e -> acc +. f e) 0. execs

(* Median over passes of a per-pass sum. *)
let per_pass passes f = Perf_stats.median (List.map (sum f) passes)

(* Layer times of one pass: build, engine phases and kernel, the kernel
   also by category. *)
let layer_times passes =
  [
    ("core.harness.build_s", per_pass passes (fun e -> e.build));
    ("core.harness.phase_s", per_pass passes (fun e -> e.phase));
    ("sim.kernel_s", per_pass passes (fun e -> e.kernel));
  ]
  @ List.map
      (fun (n, c) ->
        ( "kernel_s." ^ n,
          per_pass passes (fun e ->
              if category e.cell.target = c then e.kernel else 0.) ))
      Metrics.categories

(* Geometric mean over distinct cells of kernel_insns over the median
   kernel time, so every engine column weighs the same. *)
let kernel_mips (ctx : Ctx.t) execs =
  let kernels = Hashtbl.create 512 in
  List.iter
    (fun e ->
      let k = (e.key, e.cell.warm) in
      Hashtbl.replace kernels k
        (e.kernel :: Option.value ~default:[] (Hashtbl.find_opt kernels k)))
    execs;
  Hashtbl.fold
    (fun (key, _) ks acc ->
      match Hashtbl.find_opt ctx.observed key with
      | Some insns when Perf_stats.median ks > 0. ->
        (float_of_int insns /. Perf_stats.median ks /. 1e6) :: acc
      | _ -> acc)
    kernels []
  |> Perf_stats.geomean

let end_to_end ctx passes =
  let execs = List.concat passes in
  let latencies = List.map (fun e -> e.total *. 1000.) execs in
  [
    ("wall_s", per_pass passes (fun e -> e.total));
    ("kernel_mips", kernel_mips ctx execs);
    ("latency_p50_ms", Perf_stats.percentile latencies 50.);
    ("latency_p95_ms", Perf_stats.percentile latencies 95.);
    ("max_rss_mb", Ctx.max_rss_mb "self");
  ]

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

(* Set up once, then measure seeded passes over [cells].  [cold_setups]
   are set-up times of other fresh processes; setup_s is their median
   together with this process's own. *)
let run (ctx : Ctx.t) cells ~setup ~cold_setups : Metrics.measured =
  let own, dir = time_setup ctx cells ~setup in
  let store = Option.map (fun dir -> Simbench.Checkpoint.open_store ~dir) dir in
  let root = Spans.fresh ctx.spans in
  let start = Spans.now () in
  let passes =
    Ctx.passes ctx (fun _ ->
        List.filter_map
          (run_cell ctx ~phase:"measure" ~parent:root ?store)
          (Ctx.shuffled ctx.rng cells))
  in
  Spans.record ctx.spans ~id:root ~args:[ ("phase", "measure") ] "workload"
    ~start ~stop:(Spans.now ());
  let e2e =
    ("setup_s", Perf_stats.median (own :: cold_setups)) :: end_to_end ctx passes
  in
  let counts, ratios =
    Metrics.counter_values (Hashtbl.fold (fun _ v acc -> v :: acc) ctx.perf [])
  in
  {
    e2e;
    layer =
      (("trace.wall_s", List.assoc "wall_s" e2e) :: layer_times passes)
      @ List.map (fun (n, v) -> (n, float_of_int v)) counts
      @ ratios;
    exact = counts;
    samples = List.length (List.concat passes);
  }
