module Tablefmt = Sb_util.Tablefmt

let arch = Sb_isa.Arch_sig.Sba

type spec = {
  name : string;
  title : string;
  benches : Simbench.Bench.t list;
  iters : int option;
  variants : (string * (unit -> Sb_sim.Engine.t)) list;
}

(* One table: rows = benchmarks, columns = engine variants.  The variants
   are closures, so their columns carry no key: they run every time and
   are never cached, and always cold. *)
let sweep ?opts ~(config : Experiments.config) spec =
  (* floor the iteration count: several benchmarks have small Figure 3
     defaults and a handful of iterations is all noise *)
  let cells =
    List.map
      (fun b ->
        {
          Experiments.name = b.Simbench.Bench.name;
          target = Experiments.Bench b;
          iters =
            Some
              (match spec.iters with
              | Some n -> n
              | None -> max 1_000 (b.Simbench.Bench.default_iters / config.scale));
        })
      spec.benches
  in
  let columns =
    Experiments.columns ?opts ~config:{ config with switch_at = None }
      (List.map
         (fun (label, engine) ->
           {
             Experiments.label = spec.name ^ ":" ^ label;
             arch;
             engine;
             cells;
             key = None;
           })
         spec.variants)
  in
  let seconds (r : Experiments.row) =
    if Float.is_nan r.row_seconds then "-"
    else Printf.sprintf "%.4f" r.row_seconds
  in
  let rows =
    List.mapi
      (fun i b ->
        b.Simbench.Bench.name
        :: List.map (fun rows -> seconds (List.nth rows i)) columns)
      spec.benches
  in
  spec.title ^ "\n\n"
  ^ Tablefmt.render
      ~header:("Benchmark (kernel s)" :: List.map fst spec.variants)
      rows

let dbt_with f () =
  Simbench.Engines.dbt_configured arch (f Sb_dbt.Config.default)

let virt rounds () : Sb_sim.Engine.t =
  match arch with
  | Sb_isa.Arch_sig.Sba ->
    (module Sb_virt.Virt.Make_configured
              (Sb_arch_sba.Arch)
              (struct
                let config =
                  { Sb_virt.Virt.Config.vm_exit_rounds = rounds;
                    name_suffix = Printf.sprintf "virt%d" rounds }
              end))
  | Sb_isa.Arch_sig.Vlx -> assert false

let interp predecode () =
  Simbench.Engines.interp_configured arch { Sb_interp.Interp.Config.predecode }

let all =
  [
    (let chain direct across_pages =
       dbt_with (fun c ->
           {
             c with
             Sb_dbt.Config.chain_direct = direct;
             chain_across_pages = across_pages;
           })
     in
     {
       name = "abl-chain";
       title =
         "Ablation: DBT block chaining.  Chaining pays on direct control flow\n\
          (no block-cache lookup on the hot path); indirect branches cannot\n\
          chain and are unaffected.";
       benches =
         [
           Simbench.Suite.intra_page_direct;
           Simbench.Suite.intra_page_indirect;
           Simbench.Suite.inter_page_direct;
           Simbench.Suite.inter_page_indirect;
         ];
       iters = None;
       variants =
         [
           ("chain", chain true false);
           ("no-chain", chain false false);
           ("chain+cross-page", chain true true);
         ];
     });
    (let geometry l1 l2 lazy_ =
       dbt_with (fun c ->
           {
             c with
             Sb_dbt.Config.tlb_entries = l1;
             tlb_l2_entries = l2;
             lazy_tlb_flush = lazy_;
           })
     in
     {
       name = "abl-tlb";
       title =
         "Ablation: page-cache geometry.  Cold accesses miss regardless (the\n\
          region exceeds every configuration); the victim level rescues\n\
          conflict misses; lazy flushing turns TLB Flush from O(entries) into\n\
          O(1).";
       benches =
         [
           Simbench.Suite.hot_memory_access;
           Simbench.Suite.cold_memory_access;
           Simbench.Suite.tlb_eviction;
           Simbench.Suite.tlb_flush;
         ];
       iters = None;
       variants =
         [
           ("64/none/eager", geometry 64 0 false);
           ("256/1k/eager", geometry 256 1024 false);
           ("256/1k/lazy", geometry 256 1024 true);
           ("1k/4k/lazy", geometry 1024 4096 true);
         ];
     });
    (let passes n =
       dbt_with (fun c -> { c with Sb_dbt.Config.opt_passes = n })
     in
     {
       name = "abl-opt";
       title =
         "Ablation: optimiser pass budget.  More passes cost translation time\n\
          (visible on the self-modifying Code Generation benchmarks, which\n\
          retranslate every iteration) and buy better emitted code (visible\n\
          where blocks are reused).";
       benches =
         [
           Simbench.Suite.small_blocks;
           Simbench.Suite.large_blocks;
           Simbench.Suite.intra_page_direct;
           Simbench.Suite.hot_memory_access;
         ];
       iters = None;
       variants =
         List.map (fun n -> (Printf.sprintf "O%d" n, passes n)) [ 0; 1; 2; 4 ];
     });
    (let trace threshold blocks =
       dbt_with (fun c ->
           {
             c with
             Sb_dbt.Config.trace_threshold = threshold;
             max_trace_blocks = blocks;
           })
     in
     {
       name = "abl-traces";
       title =
         "Ablation: hot-trace superblocks.  Traces pay on direct control flow\n\
          (one dispatch covers the whole loop body, optimised across seams);\n\
          indirect branches never chain, so no trace forms and the column is\n\
          flat.  Self-modifying code bounds the invalidation overhead: every\n\
          rewrite tears the trace down and re-forms it.";
       benches =
         [
           Simbench.Suite.intra_page_direct;
           Simbench.Suite.inter_page_direct;
           Simbench.Suite.intra_page_indirect;
           Simbench.Suite.small_blocks;
         ];
       iters = None;
       variants =
         [
           ("no-traces", trace 0 8);
           ("thr=16 (default)", trace 16 8);
           ("thr=4", trace 4 8);
           ("thr=16/max=4", trace 16 4);
         ];
     });
    (let backend threaded reg_cache =
       dbt_with (fun c -> { c with Sb_dbt.Config.threaded; reg_cache })
     in
     {
       name = "abl-threaded";
       title =
         "Ablation: token-threaded code generation (docs/threaded.md).  The\n\
          flat opstream and micro-TLB fast paths pay on compute-dense kernels\n\
          (no per-uop closure dispatch, no bus call per access); the middle\n\
          column isolates the trace-scope register cache from the threading\n\
          itself.  Self-modifying code bounds the retranslation cost of the\n\
          denser encoding.";
       benches =
         [
           Simbench.Suite.intra_page_direct;
           Simbench.Suite.inter_page_direct;
           Simbench.Suite.hot_memory_access;
           Simbench.Suite.small_blocks;
         ];
       iters = None;
       variants =
         [
           ("closure", backend false false);
           ("threaded/no-regcache", backend true false);
           ("threaded (default)", backend true true);
         ];
     });
    {
      name = "abl-vmexit";
      title =
        "Ablation: virtualization world-switch cost.  Only the trap-and-\n\
         emulate operations scale with the exit cost; guest-speed operations\n\
         (syscalls, hot memory) are flat — the KVM signature of Figure 7.";
      benches =
        [
          Simbench.Suite.memory_mapped_device;
          Simbench.Suite.undefined_instruction;
          Simbench.Suite.external_software_interrupt;
          Simbench.Suite.system_call;
          Simbench.Suite.hot_memory_access;
        ];
      iters = Some 2_000;
      variants =
        [
          ("native (0)", virt 0);
          ("exit=32", virt 32);
          ("exit=96", virt 96);
          ("exit=256", virt 256);
        ];
    };
    {
      name = "abl-predecode";
      title =
        "Ablation: interpreter pre-decoding.  The decode cache pays off\n\
         everywhere except under self-modifying code, where it must be\n\
         invalidated and rebuilt.";
      benches =
        [
          Simbench.Suite.small_blocks;
          Simbench.Suite.intra_page_direct;
          Simbench.Suite.hot_memory_access;
        ];
      iters = None;
      variants =
        [ ("predecode", interp true); ("decode-always", interp false) ];
    };
  ]
