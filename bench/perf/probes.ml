(* Direct layer probes, run after the measured phase of a traced run: each
   times calls into one layer's public functions on a fixed input, so a
   layer the workload itself does not exercise still has a number. *)

module P = Sb_serve.Protocol

let sba = Sb_isa.Arch_sig.Sba
let platform = Simbench.Platform.sbp_ref
let ms x = x *. 1000.

(* Median host seconds of [n] timed calls, each recorded as a span. *)
let probe (ctx : Ctx.t) ~root name n f =
  List.init n (fun _ ->
      let t0 = Spans.now () in
      f ();
      let t1 = Spans.now () in
      ignore
        (Spans.add ctx.spans ~parent:root ~args:[ ("phase", "probe") ] name
           ~start:t0 ~stop:t1);
      t1 -. t0)
  |> Perf_stats.median

let fresh_machine program iters =
  let m = Simbench.Platform.machine platform ~now:Unix.gettimeofday () in
  Sb_mem.Benchdev.set_iters m.Sb_sim.Machine.benchdev iters;
  Sb_sim.Machine.load_program m program;
  m

(* The checkpoint write and read paths on mcf, whose setup builds a large
   working set: fast-forward to the kernel, snapshot, store, reload. *)
let checkpoint (ctx : Ctx.t) ~root =
  let support = Simbench.Engines.support sba in
  let bench = Sb_workloads.Workloads.mcf.Sb_workloads.Workloads.bench in
  let program = Simbench.Rt.program ~support ~platform ~bench in
  let iters = 2 in
  let reps = if ctx.smoke then 1 else 3 in
  let probe = probe ctx ~root in
  let snap = ref None in
  let populate =
    probe "ckpt.fast_forward" reps (fun () ->
        let m = fresh_machine program iters in
        snap :=
          Some
            (Simbench.Checkpoint.run_to_point
               ~setup_engine:(Simbench.Engines.interp sba)
               ~point:Simbench.Checkpoint.Kernel_phase m))
  in
  let snap = Option.get !snap in
  let m = fresh_machine program iters in
  Sb_sim.Snapshot.restore snap m;
  let snapshot_save =
    probe "snapshot.save" reps (fun () -> ignore (Sb_sim.Snapshot.save m))
  in
  let snapshot_restore =
    probe "snapshot.restore" reps (fun () ->
        Sb_sim.Snapshot.restore ~validated:true snap m)
  in
  let key = "ckpt_probe" in
  let n = ref 0 in
  let dir () = Filename.concat ctx.work (Printf.sprintf "probe-ckpt-%d" !n) in
  let ckpt_save =
    probe "ckpt.save" reps (fun () ->
        incr n;
        let store = Simbench.Checkpoint.open_store ~dir:(dir ()) in
        Simbench.Checkpoint.save store ~key snap)
  in
  (* a fresh handle each time, so the load reads and validates the file *)
  let ckpt_load =
    probe "ckpt.load" reps (fun () ->
        let store = Simbench.Checkpoint.open_store ~dir:(dir ()) in
        if Simbench.Checkpoint.load store ~key = None then
          Ctx.fail ctx "probe: checkpoint did not load back")
  in
  let cache =
    Sb_jobs.Cache.create ~dir:(Filename.concat ctx.work "probe-cache")
  in
  let cache_store =
    probe "cache.store" reps (fun () -> Sb_jobs.Cache.store cache ~key:"probe" snap)
  in
  let cache_load =
    probe "cache.load" reps (fun () ->
        match (Sb_jobs.Cache.load cache ~key:"probe" : Sb_sim.Snapshot.t option) with
        | Some _ -> ()
        | None -> Ctx.fail ctx "probe: cache entry did not load back")
  in
  let dir = Sb_jobs.Cache.dir cache in
  let bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  [
    ("core.ckpt.populate_s", populate);
    ("core.ckpt.save_ms", ms ckpt_save);
    ("core.ckpt.load_ms", ms ckpt_load);
    ("sim.snapshot.save_ms", ms snapshot_save);
    ("sim.snapshot.restore_ms", ms snapshot_restore);
    ( "sim.snapshot.pages",
      float_of_int (List.length snap.Sb_sim.Snapshot.s_pages) );
    ("jobs.cache.store_ms", ms cache_store);
    ("jobs.cache.load_ms", ms cache_load);
    ("jobs.cache.bytes", float_of_int bytes);
  ]

(* Encode and decode of a typical row frame, per frame. *)
let protocol (ctx : Ctx.t) ~root =
  let row =
    {
      Sb_report.Experiments.row_cell = "Small Blocks";
      row_engine = "dbt";
      row_arch = "sba";
      row_iters = 100;
      row_repeats = 1;
      row_seconds = 0.0123;
      row_mean_seconds = 0.0123;
      row_samples = [ 0.0123 ];
      row_kernel_insns = 123456;
      row_perf =
        List.map (fun c -> (Sb_sim.Perf.to_string c, 1000)) Sb_sim.Perf.all;
      row_status = "ok";
      row_note = "";
    }
  in
  let response =
    P.Row
      { id = "1"; key = String.make 32 'a'; cached = false; cell = P.row_to_json row }
  in
  let frame = P.frame (P.response_to_json response) in
  let line = String.sub frame 0 (String.length frame - 1) in
  let n = if ctx.smoke then 10 else 1000 in
  let per_frame name f =
    probe ctx ~root name 3 (fun () ->
        for _ = 1 to n do
          f ()
        done)
    /. float_of_int n *. 1e6
  in
  [
    ( "serve.protocol.encode_us",
      per_frame "protocol.encode" (fun () ->
          ignore (P.frame (P.response_to_json response))) );
    ( "serve.protocol.decode_us",
      per_frame "protocol.decode" (fun () -> ignore (P.response_of_line line)) );
  ]

(* One fixed cell per engine family: its median kernel time. *)
let engines (ctx : Ctx.t) ~root =
  let support = Simbench.Engines.support sba in
  let bench = Simbench.Suite.hot_memory_access in
  let iters = if ctx.smoke then 20 else 2000 in
  List.map
    (fun (family, engine) ->
      let kernel = ref [] in
      ignore
        (probe ctx ~root ("engine." ^ family) (if ctx.smoke then 1 else 3)
           (fun () ->
             let o = Simbench.Harness.run ~iters ~support ~engine bench in
             kernel := o.Simbench.Harness.kernel_seconds :: !kernel));
      ( Printf.sprintf "probe.%s.kernel_ms" family,
        ms (Perf_stats.median !kernel) ))
    Simbench.Engines.
      [
        ("interp", interp sba);
        ("dbt", dbt sba);
        ("detailed", detailed sba);
        ("virt", virt sba);
        ("native", native sba);
      ]

let run (ctx : Ctx.t) ~serve =
  let root = Spans.fresh ctx.spans in
  let start = Spans.now () in
  let support = Simbench.Engines.support sba in
  let machine =
    probe ctx ~root "platform.machine" (if ctx.smoke then 2 else 20) (fun () ->
        ignore (Simbench.Platform.machine platform ()))
  in
  let program =
    Perf_stats.median
      (List.map
         (fun bench ->
           probe ctx ~root "rt.program" 1 (fun () ->
               ignore (Simbench.Rt.program ~support ~platform ~bench)))
         Simbench.Suite.all)
  in
  let values =
    [
      ("core.platform.machine_ms", ms machine);
      ("core.rt.program_ms", ms program);
    ]
    @ checkpoint ctx ~root
    @ protocol ctx ~root
    @ engines ctx ~root
    @ if serve then Serve_load.probe_session ctx else []
  in
  Spans.record ctx.spans ~id:root ~args:[ ("phase", "probe") ] "probes" ~start
    ~stop:(Spans.now ());
  values
