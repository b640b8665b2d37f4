module Tablefmt = Sb_util.Tablefmt
module Pool = Sb_jobs.Pool

let arch = Sb_isa.Arch_sig.Sba

let time ?iters ~(config : Experiments.config) (label, engine) bench =
  (* floor the iteration count: several benchmarks have small Figure 3
     defaults and a handful of iterations is all noise *)
  let iters =
    match iters with
    | Some n -> n
    | None ->
      max 1_000 (bench.Simbench.Bench.default_iters / config.Experiments.scale)
  in
  (Experiments.measure ~label ~arch ~cell:bench.Simbench.Bench.name
     ~repeats:config.Experiments.repeats ~iters ~engine
     (Experiments.Bench bench))
    .Experiments.row_seconds

(* One table: rows = benchmarks, columns = engine variants.  Each variant
   column is one pool task; the engine variants are closures, so the
   columns run in forked workers but are never disk-cached. *)
let sweep ?iters ?(opts = Experiments.sequential) ~config ~title ~benches
    ~variants () =
  let tasks =
    List.map
      (fun (label, engine) ->
        Pool.task ~label (fun () ->
            List.map
              (fun b ->
                (b.Simbench.Bench.name, time ?iters ~config (label, engine) b))
              benches))
      variants
  in
  let results =
    Pool.run ~jobs:opts.Experiments.jobs ?deadline:opts.Experiments.deadline
      ~retries:opts.Experiments.retries tasks
  in
  let columns =
    List.map2
      (fun (label, _) outcome ->
        let times =
          match outcome with
          | Pool.Done times | Pool.Retried (times, _) -> times
          | Pool.Failed f ->
            (* degrade the column to gaps instead of sinking the table *)
            Printf.eprintf "[sb-report] ablation %s\n%!"
              (Pool.failure_message f);
            []
        in
        let tbl = Hashtbl.create 16 in
        List.iter (fun (name, t) -> Hashtbl.replace tbl name t) times;
        (label, tbl))
      variants results
  in
  let rows =
    List.map
      (fun b ->
        b.Simbench.Bench.name
        :: List.map
             (fun (_, tbl) ->
               match Hashtbl.find_opt tbl b.Simbench.Bench.name with
               | Some t -> Printf.sprintf "%.4f" t
               | None -> "-")
             columns)
      benches
  in
  title ^ "\n\n"
  ^ Tablefmt.render ~header:("Benchmark (kernel s)" :: List.map fst columns) rows

let dbt_with f = Simbench.Engines.dbt_configured arch (f Sb_dbt.Config.default)

let chaining ?(config = Experiments.default_config) ?opts () =
  sweep ?opts ~config
    ~title:
      "Ablation: DBT block chaining.  Chaining pays on direct control flow\n\
       (no block-cache lookup on the hot path); indirect branches cannot\n\
       chain and are unaffected."
    ~benches:
      [
        Simbench.Suite.intra_page_direct;
        Simbench.Suite.intra_page_indirect;
        Simbench.Suite.inter_page_direct;
        Simbench.Suite.inter_page_indirect;
      ]
    ~variants:
      [
        ("chain", dbt_with (fun c -> { c with Sb_dbt.Config.chain_direct = true }));
        ("no-chain", dbt_with (fun c -> { c with Sb_dbt.Config.chain_direct = false }));
        ( "chain+cross-page",
          dbt_with (fun c ->
              { c with Sb_dbt.Config.chain_direct = true; chain_across_pages = true }) );
      ]
    ()

let page_cache ?(config = Experiments.default_config) ?opts () =
  let geometry l1 l2 lazy_ =
    dbt_with (fun c ->
        {
          c with
          Sb_dbt.Config.tlb_entries = l1;
          tlb_l2_entries = l2;
          lazy_tlb_flush = lazy_;
        })
  in
  sweep ?opts ~config
    ~title:
      "Ablation: page-cache geometry.  Cold accesses miss regardless (the\n\
       region exceeds every configuration); the victim level rescues\n\
       conflict misses; lazy flushing turns TLB Flush from O(entries) into\n\
       O(1)."
    ~benches:
      [
        Simbench.Suite.hot_memory_access;
        Simbench.Suite.cold_memory_access;
        Simbench.Suite.tlb_eviction;
        Simbench.Suite.tlb_flush;
      ]
    ~variants:
      [
        ("64/none/eager", geometry 64 0 false);
        ("256/1k/eager", geometry 256 1024 false);
        ("256/1k/lazy", geometry 256 1024 true);
        ("1k/4k/lazy", geometry 1024 4096 true);
      ]
    ()

let optimiser ?(config = Experiments.default_config) ?opts () =
  let passes n = dbt_with (fun c -> { c with Sb_dbt.Config.opt_passes = n }) in
  sweep ?opts ~config
    ~title:
      "Ablation: optimiser pass budget.  More passes cost translation time\n\
       (visible on the self-modifying Code Generation benchmarks, which\n\
       retranslate every iteration) and buy better emitted code (visible\n\
       where blocks are reused)."
    ~benches:
      [
        Simbench.Suite.small_blocks;
        Simbench.Suite.large_blocks;
        Simbench.Suite.intra_page_direct;
        Simbench.Suite.hot_memory_access;
      ]
    ~variants:
      [ ("O0", passes 0); ("O1", passes 1); ("O2", passes 2); ("O4", passes 4) ]
    ()

let vm_exit ?(config = Experiments.default_config) ?opts () =
  let virt rounds =
    match arch with
    | Sb_isa.Arch_sig.Sba ->
      (module Sb_virt.Virt.Make_configured
                (Sb_arch_sba.Arch)
                (struct
                  let config =
                    { Sb_virt.Virt.Config.vm_exit_rounds = rounds;
                      name_suffix = Printf.sprintf "virt%d" rounds }
                end) : Sb_sim.Engine.ENGINE)
    | Sb_isa.Arch_sig.Vlx -> assert false
  in
  sweep ?opts ~iters:2_000 ~config
    ~title:
      "Ablation: virtualization world-switch cost.  Only the trap-and-\n\
       emulate operations scale with the exit cost; guest-speed operations\n\
       (syscalls, hot memory) are flat — the KVM signature of Figure 7."
    ~benches:
      [
        Simbench.Suite.memory_mapped_device;
        Simbench.Suite.undefined_instruction;
        Simbench.Suite.external_software_interrupt;
        Simbench.Suite.system_call;
        Simbench.Suite.hot_memory_access;
      ]
    ~variants:
      [
        ("native (0)", (virt 0 :> Sb_sim.Engine.t));
        ("exit=32", (virt 32 :> Sb_sim.Engine.t));
        ("exit=96", (virt 96 :> Sb_sim.Engine.t));
        ("exit=256", (virt 256 :> Sb_sim.Engine.t));
      ]
    ()

let predecode ?(config = Experiments.default_config) ?opts () =
  let interp predecode =
    Simbench.Engines.interp_configured arch
      { Sb_interp.Interp.Config.default with Sb_interp.Interp.Config.predecode }
  in
  sweep ?opts ~config
    ~title:
      "Ablation: interpreter pre-decoding.  The decode cache pays off\n\
       everywhere except under self-modifying code, where it must be\n\
       invalidated and rebuilt."
    ~benches:
      [
        Simbench.Suite.small_blocks;
        Simbench.Suite.intra_page_direct;
        Simbench.Suite.hot_memory_access;
      ]
    ~variants:[ ("predecode", interp true); ("decode-always", interp false) ]
    ()

let traces ?(config = Experiments.default_config) ?opts () =
  let trace threshold blocks =
    dbt_with (fun c ->
        { c with Sb_dbt.Config.trace_threshold = threshold; max_trace_blocks = blocks })
  in
  sweep ?opts ~config
    ~title:
      "Ablation: hot-trace superblocks.  Traces pay on direct control flow\n\
       (one dispatch covers the whole loop body, optimised across seams);\n\
       indirect branches never chain, so no trace forms and the column is\n\
       flat.  Self-modifying code bounds the invalidation overhead: every\n\
       rewrite tears the trace down and re-forms it."
    ~benches:
      [
        Simbench.Suite.intra_page_direct;
        Simbench.Suite.inter_page_direct;
        Simbench.Suite.intra_page_indirect;
        Simbench.Suite.small_blocks;
      ]
    ~variants:
      [
        ("no-traces", trace 0 8);
        ("thr=16 (default)", trace 16 8);
        ("thr=4", trace 4 8);
        ("thr=16/max=4", trace 16 4);
      ]
    ()

let threaded ?(config = Experiments.default_config) ?opts () =
  let backend threaded reg_cache =
    dbt_with (fun c -> { c with Sb_dbt.Config.threaded; reg_cache })
  in
  sweep ?opts ~config
    ~title:
      "Ablation: token-threaded code generation (docs/threaded.md).  The\n\
       flat opstream and micro-TLB fast paths pay on compute-dense kernels\n\
       (no per-uop closure dispatch, no bus call per access); the middle\n\
       column isolates the trace-scope register cache from the threading\n\
       itself.  Self-modifying code bounds the retranslation cost of the\n\
       denser encoding."
    ~benches:
      [
        Simbench.Suite.intra_page_direct;
        Simbench.Suite.inter_page_direct;
        Simbench.Suite.hot_memory_access;
        Simbench.Suite.small_blocks;
      ]
    ~variants:
      [
        ("closure", backend false false);
        ("threaded/no-regcache", backend true false);
        ("threaded (default)", backend true true);
      ]
    ()

let all ?(config = Experiments.default_config) ?opts () =
  String.concat "\n\n"
    [
      chaining ~config ?opts ();
      page_cache ~config ?opts ();
      optimiser ~config ?opts ();
      traces ~config ?opts ();
      threaded ~config ?opts ();
      vm_exit ~config ?opts ();
      predecode ~config ?opts ();
    ]
