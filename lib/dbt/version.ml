let v1_7_0 = Config.baseline

let v2_0_0 =
  {
    v1_7_0 with
    Config.opt_passes = 3;
    max_block_insns = 64;
    lazy_tlb_flush = true;
  }

let v2_1_0 =
  {
    v2_0_0 with
    Config.mem_helper_layers = 1;
    walk_extra_work = 9;
    exception_sync_work = 3;
  }

let v2_2_0 = { v2_1_0 with Config.exception_sync_work = 4; walk_extra_work = 12 }

let v2_3_0 =
  {
    v2_2_0 with
    Config.mem_helper_layers = 2;
    chain_verify_work = 2;
    walk_extra_work = 24;
    exception_sync_work = 5;
  }

let v2_4_0 =
  {
    v2_3_0 with
    Config.chain_verify_work = 4;
    walk_extra_work = 20;
    exception_sync_work = 6;
  }

let v2_5_0_rc0 =
  {
    v2_4_0 with
    Config.mem_helper_layers = 3;
    chain_verify_work = 6;
    walk_extra_work = 24;
    exception_sync_work = 7;
    data_fault_fast_path = true;
  }

let v2_6_0 =
  { v2_5_0_rc0 with Config.trace_threshold = 16; max_trace_blocks = 8 }

let v2_7_0 = { v2_6_0 with Config.threaded = true; reg_cache = true }

let all =
  [
    ("v1.7.0", v1_7_0);
    ("v1.7.1", v1_7_0);
    ("v1.7.2", v1_7_0);
    ("v2.0.0", v2_0_0);
    ("v2.0.1", v2_0_0);
    ("v2.0.2", v2_0_0);
    ("v2.1.0", v2_1_0);
    ("v2.1.1", v2_1_0);
    ("v2.1.2", v2_1_0);
    ("v2.1.3", v2_1_0);
    ("v2.2.0", v2_2_0);
    ("v2.2.1", v2_2_0);
    ("v2.3.0", v2_3_0);
    ("v2.3.1", v2_3_0);
    ("v2.4.0", v2_4_0);
    ("v2.4.0.1", v2_4_0);
    ("v2.4.1", v2_4_0);
    ("v2.5.0-rc0", v2_5_0_rc0);
    ("v2.5.0-rc1", v2_5_0_rc0);
    ("v2.5.0-rc2", v2_5_0_rc0);
    ("v2.6.0", v2_6_0);
    ("v2.7.0", v2_7_0);
  ]

let baseline_name = "v1.7.0"

let find name = List.assoc_opt name all

(* Releases alias configurations (v1.7.1 ships v1.7.0's), so the reverse
   lookup returns the canonical (first-listed) release name; [None] for
   configurations that are not a registered release (e.g. Config.default
   or ad-hoc experiment configs). *)
let name_of config =
  Option.map fst (List.find_opt (fun (_, c) -> c = config) all)

let canonical name =
  match Option.bind (find name) name_of with Some n -> n | None -> name

let names = List.map fst all
