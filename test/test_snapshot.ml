(* Tests for the unified architectural snapshot and checkpointed
   fast-forward: a run resumed from a snapshot must be indistinguishable
   from one that ran cold — identical kernel_insns, identical console
   output, identical final machine state — on every engine and both guest
   ISAs; corrupt checkpoints must fail loudly (or be evicted) rather than
   mis-restore; and the debugger's snapshot/restore must rewind exactly. *)

module H = Simbench.Harness
module Checkpoint = Simbench.Checkpoint
module Snapshot = Sb_sim.Snapshot
module Cache = Sb_jobs.Cache
module W = Sb_workloads.Workloads

let scale = 400_000 (* tiny iteration counts: correctness, not timing *)

let archs = [ Sb_isa.Arch_sig.Sba; Sb_isa.Arch_sig.Vlx ]

let arch_name = function Sb_isa.Arch_sig.Sba -> "sba" | Sb_isa.Arch_sig.Vlx -> "vlx"

let engines_for arch =
  [
    ("interp", Simbench.Engines.interp arch);
    ("dbt", Simbench.Engines.dbt arch);
    ("detailed", Simbench.Engines.detailed arch);
    ("virt", Simbench.Engines.virt arch);
  ]

(* Benchmarks chosen to cover distinct snapshot-relevant state: plain
   compute, IRQ delivery through the intc, and (omnetpp) timer-interrupt
   pacing, where any tick drift between a cold and a resumed run would
   move interrupts and change kernel_insns. *)
let equivalence_benches =
  [
    (Simbench.Suite.hot_memory_access, None);
    (Simbench.Suite.external_software_interrupt, None);
    ((Option.get (W.find "omnetpp")).W.bench, Some 16);
  ]

(* ------------------------------------------------------------------ *)
(* Cold vs fast-forwarded runs through the harness                      *)
(* ------------------------------------------------------------------ *)

let test_fast_forward_equivalence () =
  List.iter
    (fun arch ->
      let support = Simbench.Engines.support arch in
      List.iter
        (fun (bench, iters) ->
          List.iter
            (fun (ename, engine) ->
              let label =
                Printf.sprintf "%s/%s/%s" (arch_name arch)
                  bench.Simbench.Bench.name ename
              in
              let cold = H.run ~scale ?iters ~support ~engine bench in
              let warm =
                H.run ~scale ?iters ~switch_at:Checkpoint.Kernel_phase
                  ~support ~engine bench
              in
              Alcotest.(check int)
                (label ^ ": kernel_insns")
                cold.H.kernel_insns warm.H.kernel_insns;
              Alcotest.(check string)
                (label ^ ": uart output")
                cold.H.result.Sb_sim.Run_result.uart_output
                warm.H.result.Sb_sim.Run_result.uart_output;
              Alcotest.(check int)
                (label ^ ": tested ops")
                cold.H.result.Sb_sim.Run_result.tested_ops
                warm.H.result.Sb_sim.Run_result.tested_ops)
            (engines_for arch))
        equivalence_benches)
    archs

(* Switching at an instruction count exercises the overshoot crediting:
   whether the count lands in setup or inside the kernel, the carried
   [insns_into_kernel] must make kernel_insns match a cold run. *)
let test_at_insns_equivalence () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let bench = Simbench.Suite.system_call in
  List.iter
    (fun (ename, engine) ->
      let cold = H.run ~scale ~support ~engine bench in
      List.iter
        (fun n ->
          let warm =
            H.run ~scale ~switch_at:(Checkpoint.At_insns n) ~support ~engine
              bench
          in
          Alcotest.(check int)
            (Printf.sprintf "%s at insn %d: kernel_insns" ename n)
            cold.H.kernel_insns warm.H.kernel_insns)
        [ 200; 2_000 ])
    (engines_for arch)

(* ------------------------------------------------------------------ *)
(* Final-state identity (snapshot digests of the halted machine)        *)
(* ------------------------------------------------------------------ *)

let machine_for ~support ~bench ~iters =
  let platform = Simbench.Platform.sbp_ref in
  let program = Simbench.Rt.program ~support ~platform ~bench in
  let machine = Simbench.Platform.machine platform () in
  Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev iters;
  Sb_sim.Machine.load_program machine program;
  machine

let run_to_halt ~engine machine =
  let result = Sb_sim.Engine.run engine machine in
  (match result.Sb_sim.Run_result.stop with
  | Sb_sim.Run_result.Halted -> ()
  | s ->
    Alcotest.failf "run did not halt: %s"
      (Format.asprintf "%a" Sb_sim.Run_result.pp_stop s));
  result

let test_final_state_identity () =
  List.iter
    (fun arch ->
      let support = Simbench.Engines.support arch in
      let bench = Simbench.Suite.memory_mapped_device in
      let iters = 12 in
      List.iter
        (fun (ename, engine) ->
          let label = Printf.sprintf "%s/%s" (arch_name arch) ename in
          (* mirror the harness's granularity rule: the DBT fast-forwards
             under itself, per-insn engines under the interpreter *)
          let setup_engine =
            if ename = "dbt" then engine else Simbench.Engines.interp arch
          in
          let cold_m = machine_for ~support ~bench ~iters in
          let _ = run_to_halt ~engine cold_m in
          let cold = Snapshot.save cold_m in
          let warm_m = machine_for ~support ~bench ~iters in
          let (_ : Snapshot.t) =
            Checkpoint.fast_forward ~setup_engine
              ~point:Checkpoint.Kernel_phase ~key:"unused" warm_m
          in
          let _ = run_to_halt ~engine warm_m in
          let warm = Snapshot.save warm_m in
          Alcotest.(check string)
            (label ^ ": final state")
            (Snapshot.digest cold) (Snapshot.digest warm))
        (engines_for arch))
    archs

(* A checkpoint is engine-portable: an interp-produced snapshot restored
   into the DBT (different retirement granularity) still runs to the same
   architectural outcome — only the free-running timer's final residue,
   which tracks the DBT's block-aligned flush instants, may differ. *)
let test_cross_engine_restore () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let bench = Simbench.Suite.memory_mapped_device in
  let iters = 12 in
  let engine = Simbench.Engines.dbt arch in
  let normalized_digest snap =
    let d = snap.Snapshot.s_devices in
    Snapshot.digest
      {
        snap with
        Snapshot.s_devices =
          {
            d with
            Snapshot.s_timer =
              { d.Snapshot.s_timer with Sb_mem.Timer.s_count = 0 };
          };
      }
  in
  let cold_m = machine_for ~support ~bench ~iters in
  let cold_r = run_to_halt ~engine cold_m in
  let warm_m = machine_for ~support ~bench ~iters in
  let (_ : Snapshot.t) =
    Checkpoint.fast_forward
      ~setup_engine:(Simbench.Engines.interp arch)
      ~point:Checkpoint.Kernel_phase ~key:"unused" warm_m
  in
  let warm_r = run_to_halt ~engine warm_m in
  Alcotest.(check string) "uart output"
    cold_r.Sb_sim.Run_result.uart_output warm_r.Sb_sim.Run_result.uart_output;
  Alcotest.(check int) "exit code" cold_r.Sb_sim.Run_result.exit_code
    warm_r.Sb_sim.Run_result.exit_code;
  Alcotest.(check string) "final state (timer residue aside)"
    (normalized_digest (Snapshot.save cold_m))
    (normalized_digest (Snapshot.save warm_m))

(* ------------------------------------------------------------------ *)
(* Restore under an armed fault plan                                    *)
(* ------------------------------------------------------------------ *)

(* The bus-error injector keys off the architectural MMIO access ordinal,
   which the snapshot carries: a faulted run split at an arbitrary point
   must inject the same Nth accesses and converge to the cold run's final
   state. *)
let test_restore_under_fault_plan () =
  let arch = Sb_isa.Arch_sig.Sba in
  let engine = Simbench.Engines.interp arch in
  let plan = Sb_fault.Plan.generate ~seed:5 in
  let program = Sb_fault.Fault.program ~arch plan in
  let fresh () =
    let m = Simbench.Platform.machine Simbench.Platform.sbp_ref () in
    Sb_sim.Machine.load_program m program;
    Sb_fault.Fault.arm plan m;
    m
  in
  let cold_m = fresh () in
  let cold_r = Sb_sim.Engine.run engine cold_m in
  let mid_m = fresh () in
  let (_ : Sb_sim.Run_result.t) =
    Sb_sim.Engine.run engine ~max_insns:200 mid_m
  in
  let snap = Snapshot.save mid_m in
  let resumed_m = Simbench.Platform.machine Simbench.Platform.sbp_ref () in
  Sb_sim.Machine.load_program resumed_m program;
  Sb_fault.Fault.arm plan resumed_m;
  Snapshot.restore snap resumed_m;
  let resumed_r = Sb_sim.Engine.run engine resumed_m in
  Alcotest.(check string) "same stop reason"
    (Format.asprintf "%a" Sb_sim.Run_result.pp_stop cold_r.Sb_sim.Run_result.stop)
    (Format.asprintf "%a" Sb_sim.Run_result.pp_stop resumed_r.Sb_sim.Run_result.stop);
  Alcotest.(check string) "same final state under faults"
    (Snapshot.digest (Snapshot.save cold_m))
    (Snapshot.digest (Snapshot.save resumed_m))

(* ------------------------------------------------------------------ *)
(* The resident-page scan                                               *)
(* ------------------------------------------------------------------ *)

(* [Snapshot.save] scans RAM in place with [Phys_mem.is_zero]; its page
   list and memory digest must equal a byte-by-byte reference scan.  The
   digest is recomputed here from its definition (RAM size, then index
   and page digest per resident page), which also pins the format that
   existing checkpoint files were written in. *)
let reference_scan (m : Sb_sim.Machine.t) =
  let ram = Sb_mem.Bus.ram m.Sb_sim.Machine.bus in
  let size = m.Sb_sim.Machine.ram_size in
  let page = Snapshot.page_size in
  let pages = ref [] in
  for idx = ((size + page - 1) / page) - 1 downto 0 do
    let addr = idx * page in
    let data =
      String.init (min page (size - addr)) (fun i ->
          Char.chr (Sb_mem.Phys_mem.read8 ram (addr + i)))
    in
    if String.exists (fun c -> c <> '\000') data then
      pages := (idx, data) :: !pages
  done;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (string_of_int size);
  List.iter
    (fun (idx, data) ->
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int idx);
      Buffer.add_string buf (Digest.string data))
    !pages;
  (!pages, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_save_scan_matches_reference () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let m = machine_for ~support ~bench:W.mcf.W.bench ~iters:2 in
  let (_ : Snapshot.t) =
    Checkpoint.run_to_point
      ~setup_engine:(Simbench.Engines.interp arch)
      ~point:Checkpoint.Kernel_phase m
  in
  (* on top of mcf's working set: lone bytes at the first and last byte
     of RAM and at both edges of a page, and a page written then zeroed
     again, which must count as empty *)
  let ram = Sb_mem.Bus.ram m.Sb_sim.Machine.bus in
  let size = m.Sb_sim.Machine.ram_size in
  List.iter
    (fun addr -> Sb_mem.Phys_mem.write8 ram addr 0x01)
    [ 0; size - 1; (4000 * Snapshot.page_size); (4100 * Snapshot.page_size) - 1 ];
  Sb_mem.Phys_mem.write32 ram ((5000 * Snapshot.page_size) + 24) 0xFFFF_FFFF;
  Sb_mem.Phys_mem.write32 ram ((5000 * Snapshot.page_size) + 24) 0;
  let snap = Snapshot.save m in
  let pages, digest = reference_scan m in
  Alcotest.(check (list int)) "resident page indices" (List.map fst pages)
    (List.map fst snap.Snapshot.s_pages);
  Alcotest.(check bool) "page contents" true (pages = snap.Snapshot.s_pages);
  Alcotest.(check string) "memory digest" digest snap.Snapshot.s_mem_digest;
  Alcotest.(check bool) "mcf's working set is resident" true
    (List.length pages > 100)

(* A warm restore writes each page of the snapshot into RAM as it is:
   mcf's kernel-phase snapshot holds over 2000 pages, and a 4 KiB copy of
   each would go straight to the major heap, about a megaword a restore. *)
let test_restore_no_page_garbage () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let m = machine_for ~support ~bench:W.mcf.W.bench ~iters:2 in
  let snap =
    Checkpoint.run_to_point
      ~setup_engine:(Simbench.Engines.interp arch)
      ~point:Checkpoint.Kernel_phase m
  in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  Snapshot.restore ~validated:true snap m;
  let words = major_words () -. before in
  if words >= 65536. then
    Alcotest.failf "a restore of %d pages allocated %.0f major-heap words"
      (List.length snap.Snapshot.s_pages) words

(* ------------------------------------------------------------------ *)
(* Corruption: tampered snapshots and damaged checkpoint files          *)
(* ------------------------------------------------------------------ *)

let tmp_counter = ref 0

let tmp_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sb_snapshot_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  Cache.mkdir_p d;
  d

(* A checkpoint is written record by record through the channel: saving
   mcf's 2,054 pages makes no image-sized string (a save that marshalled
   the snapshot whole made two, about 2.1 M major-heap words). *)
let test_save_streams_pages () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let m = machine_for ~support ~bench:W.mcf.W.bench ~iters:2 in
  let snap =
    Checkpoint.run_to_point
      ~setup_engine:(Simbench.Engines.interp arch)
      ~point:Checkpoint.Kernel_phase m
  in
  let dir = tmp_dir () in
  let store = Checkpoint.open_store ~dir in
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  let before = major_words () in
  Checkpoint.save store ~key:"ckpt_mcf_save" snap;
  let words = major_words () -. before in
  Cache.clear (Checkpoint.cache store);
  Sys.rmdir dir;
  if words >= 65536. then
    Alcotest.failf "a save of %d pages allocated %.0f major-heap words"
      (List.length snap.Snapshot.s_pages) words

(* A machine restored from a checkpoint file, read back through a fresh
   store, is the machine it was saved from. *)
let test_file_roundtrip_identity () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  List.iter
    (fun bench ->
      let name = bench.Simbench.Bench.name in
      let m = machine_for ~support ~bench ~iters:2 in
      let snap =
        Checkpoint.run_to_point
          ~setup_engine:(Simbench.Engines.interp arch)
          ~point:Checkpoint.Kernel_phase m
      in
      let dir = tmp_dir () in
      Checkpoint.save (Checkpoint.open_store ~dir) ~key:"ckpt_identity" snap;
      let store = Checkpoint.open_store ~dir in
      let loaded = Checkpoint.load store ~key:"ckpt_identity" in
      Cache.clear (Checkpoint.cache store);
      Sys.rmdir dir;
      match loaded with
      | None -> Alcotest.failf "%s: the checkpoint did not load" name
      | Some loaded ->
        let restored = machine_for ~support ~bench ~iters:2 in
        Snapshot.restore loaded restored;
        Alcotest.(check string)
          (name ^ ": restored machine")
          (Snapshot.digest (Snapshot.save m))
          (Snapshot.digest (Snapshot.save restored)))
    [ W.mcf.W.bench; Simbench.Suite.tlb_flush ]

let small_snapshot () =
  let support = Simbench.Engines.support Sb_isa.Arch_sig.Sba in
  let m =
    machine_for ~support ~bench:Simbench.Suite.hot_memory_access ~iters:10
  in
  let (_ : Sb_sim.Run_result.t) =
    Sb_sim.Engine.run (Simbench.Engines.interp Sb_isa.Arch_sig.Sba)
      ~max_insns:100 m
  in
  (m, Snapshot.save m)

let expect_corrupt label f =
  match f () with
  | () -> Alcotest.failf "%s: restore of tampered snapshot succeeded" label
  | exception Snapshot.Corrupt _ -> ()

let test_tampered_snapshot_rejected () =
  let m, snap = small_snapshot () in
  (* wrong schema *)
  expect_corrupt "schema" (fun () ->
      Snapshot.restore { snap with Snapshot.s_schema = 999 } m);
  (* flipped byte in a page, digest left stale *)
  (match snap.Snapshot.s_pages with
  | (idx, data) :: rest ->
    let b = Bytes.of_string data in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    expect_corrupt "page tamper" (fun () ->
        Snapshot.restore
          { snap with Snapshot.s_pages = (idx, Bytes.to_string b) :: rest }
          m)
  | [] -> Alcotest.fail "snapshot has no pages");
  (* restore into a machine with different RAM *)
  let mini = Simbench.Platform.machine Simbench.Platform.sbp_mini () in
  expect_corrupt "ram size" (fun () -> Snapshot.restore snap mini);
  (* the untampered snapshot still restores *)
  Snapshot.restore snap m

let checkpoint_file dir =
  match
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 8 && String.sub f 0 8 = "sb_ckpt_")
  with
  | [ f ] -> Filename.concat dir f
  | l -> Alcotest.failf "expected one checkpoint file, found %d" (List.length l)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file contents =
  Out_channel.with_open_bin file (fun oc -> output_string oc contents)

(* The offsets at which the marshal records of a checkpoint file end: the
   key, the header, one per page, the end record. *)
let record_ends contents =
  let rec go ofs acc =
    if ofs >= String.length contents then List.rev acc
    else
      let ofs =
        ofs + Marshal.total_size (Bytes.unsafe_of_string contents) ofs
      in
      go ofs (ofs :: acc)
  in
  go 0 []

let test_truncated_checkpoint_evicted () =
  let dir = tmp_dir () in
  let store = Checkpoint.open_store ~dir in
  let _, snap = small_snapshot () in
  Checkpoint.save store ~key:"ckpt_truncation_test" snap;
  let file = checkpoint_file dir in
  Alcotest.(check bool) "hit before truncation" true
    (Checkpoint.load store ~key:"ckpt_truncation_test" <> None);
  (* truncate the file mid-payload *)
  let len = (Unix.stat file).Unix.st_size in
  let fd = Unix.openfile file [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len / 2);
  Unix.close fd;
  Cache.reset_evictions ();
  (* the first handle already validated and memoized this snapshot, so it
     keeps serving it; the truncation must be caught by the next process —
     a fresh handle — and evicted *)
  Alcotest.(check bool) "memo still serves first handle" true
    (Checkpoint.load store ~key:"ckpt_truncation_test" <> None);
  let store2 = Checkpoint.open_store ~dir in
  Alcotest.(check (option reject)) "truncated load misses" None
    (Option.map ignore (Checkpoint.load store2 ~key:"ckpt_truncation_test"));
  Alcotest.(check bool) "eviction counted" true (Cache.evictions () >= 1);
  Alcotest.(check bool) "file removed" false (Sys.file_exists file);
  (* a cut exactly between two page records: every record left decodes,
     and only the missing end record gives it away *)
  Alcotest.(check bool) "at least two pages" true
    (List.length snap.Snapshot.s_pages >= 2);
  Checkpoint.save store ~key:"ckpt_truncation_test" snap;
  let contents = read_file file in
  let cut = List.nth (record_ends contents) 2 in
  write_file file (String.sub contents 0 cut);
  Cache.reset_evictions ();
  let store3 = Checkpoint.open_store ~dir in
  Alcotest.(check bool) "boundary cut swept at create" false
    (Sys.file_exists file);
  Alcotest.(check (option reject)) "boundary cut misses" None
    (Option.map ignore (Checkpoint.load store3 ~key:"ckpt_truncation_test"));
  Alcotest.(check int) "one eviction" 1 (Cache.evictions ())

(* Adversarial checkpoint files: a small checkpoint (TLB Flush at its
   kernel start) cut at every record boundary, then cut at random offsets
   and with bytes of page payloads flipped (never marshal headers, which
   [Marshal] does not defend against).  Every damaged file is a miss that
   counts one eviction, every cut reads truncated in fsck, and nothing
   raises. *)
type damage = Cut of int | Flip of int * int  (* offset, xor mask *)

let string_of_damage = function
  | Cut n -> Printf.sprintf "cut at %d" n
  | Flip (n, mask) -> Printf.sprintf "flip %02x at %d" mask n

let adversarial_key = "ckpt_adversarial"

let small_checkpoint =
  lazy
    (let dir = tmp_dir () in
     let store = Checkpoint.open_store ~dir in
     let support = Simbench.Engines.support Sb_isa.Arch_sig.Sba in
     let m = machine_for ~support ~bench:Simbench.Suite.tlb_flush ~iters:10 in
     let snap =
       Checkpoint.run_to_point
         ~setup_engine:(Simbench.Engines.interp Sb_isa.Arch_sig.Sba)
         ~point:Checkpoint.Kernel_phase m
     in
     Checkpoint.save store ~key:adversarial_key snap;
     let file = checkpoint_file dir in
     let contents = read_file file in
     Sys.remove file;
     Sys.rmdir dir;
     let ends = record_ends contents in
     (* each page's bytes close its record: key, header, then the pages *)
     let payloads =
       List.mapi
         (fun i (_, data) ->
           let stop = List.nth ends (i + 2) in
           let start = stop - String.length data in
           if String.sub contents start (String.length data) <> data then
             Alcotest.failf "page %d is not at the end of its record" i;
           (start, stop))
         snap.Snapshot.s_pages
     in
     (contents, ends, payloads))

let damaged_checkpoint_rejected contents damage =
  let bytes = Bytes.of_string contents in
  let damaged =
    match damage with
    | Cut n -> Bytes.sub_string bytes 0 n
    | Flip (n, mask) ->
      Bytes.set bytes n (Char.chr (Char.code (Bytes.get bytes n) lxor mask));
      Bytes.to_string bytes
  in
  let dir = tmp_dir () in
  let file = Filename.concat dir ("sb_" ^ adversarial_key ^ ".cache") in
  write_file file damaged;
  let label = string_of_damage damage in
  match
    let fsck = Result.get_ok (Sb_jobs.Fsck.scan ~dir ()) in
    Cache.reset_evictions ();
    let store = Checkpoint.open_store ~dir in
    let loaded = Checkpoint.load store ~key:adversarial_key in
    (fsck, loaded, Cache.evictions ())
  with
  | exception e -> Alcotest.failf "%s: %s escaped" label (Printexc.to_string e)
  | fsck, loaded, evictions ->
    if loaded <> None then
      Alcotest.failf "%s: the damaged checkpoint loaded" label;
    if evictions <> 1 then
      Alcotest.failf "%s: %d evictions, expected 1" label evictions;
    if Sys.file_exists file then Alcotest.failf "%s: file kept" label;
    (match damage with
    | Cut _ when fsck.Sb_jobs.Fsck.truncated <> 1 ->
      Alcotest.failf "%s: fsck reads %d truncated" label
        fsck.Sb_jobs.Fsck.truncated
    | _ -> ());
    Sys.rmdir dir;
    true

let test_adversarial_checkpoints () =
  let contents, ends, payloads = Lazy.force small_checkpoint in
  let len = String.length contents in
  Alcotest.(check bool) "a small checkpoint" true (len < 64 * 1024);
  (* every record boundary short of the whole file, and the empty file *)
  List.iter
    (fun n -> ignore (damaged_checkpoint_rejected contents (Cut n)))
    (0 :: List.filter (fun n -> n < len) ends);
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Cut n) (int_bound (len - 1));
          ( int_bound (List.length payloads - 1) >>= fun page ->
            let start, stop = List.nth payloads page in
            map2 (fun n mask -> Flip (n, mask)) (int_range start (stop - 1))
              (int_range 1 255) );
        ])
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 26 |])
    (QCheck.Test.make ~count:200 ~name:"damaged checkpoints are misses"
       (QCheck.make ~print:string_of_damage gen)
       (damaged_checkpoint_rejected contents))

let test_create_sweeps_corrupt_checkpoints () =
  let dir = tmp_dir () in
  (* a damaged checkpoint left behind by a previous crash *)
  let junk = Filename.concat dir "sb_ckpt_00deadbeef.cache" in
  let oc = open_out_bin junk in
  output_string oc "not a marshalled checkpoint";
  close_out oc;
  Cache.reset_evictions ();
  let store = Checkpoint.open_store ~dir in
  Alcotest.(check bool) "junk swept at create" false (Sys.file_exists junk);
  Alcotest.(check bool) "sweep counted as eviction" true
    (Cache.evictions () >= 1);
  (* a healthy checkpoint written after the sweep survives the next one *)
  let _, snap = small_snapshot () in
  Checkpoint.save store ~key:"ckpt_sweep_survivor" snap;
  let store2 = Checkpoint.open_store ~dir in
  Alcotest.(check bool) "healthy checkpoint survives" true
    (Checkpoint.load store2 ~key:"ckpt_sweep_survivor" <> None)

let count_checkpoints dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 8 && String.sub f 0 8 = "sb_ckpt_")
  |> List.length

let test_store_roundtrip_and_sharing () =
  let dir = tmp_dir () in
  let store = Checkpoint.open_store ~dir in
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let bench = Simbench.Suite.coprocessor_access in
  let run engine =
    H.run ~scale ~switch_at:Checkpoint.Kernel_phase ~checkpoints:store
      ~support ~engine bench
  in
  let cold engine = H.run ~scale ~support ~engine bench in
  (* the interp producer writes the per-insn checkpoint... *)
  let first = run (Simbench.Engines.interp arch) in
  let file = checkpoint_file dir in
  let mtime = (Unix.stat file).Unix.st_mtime in
  Alcotest.(check int) "producer matches cold"
    (cold (Simbench.Engines.interp arch)).H.kernel_insns first.H.kernel_insns;
  (* ...and every other per-insn engine reuses that same warm boot *)
  let second = run (Simbench.Engines.detailed arch) in
  Alcotest.(check int) "still one checkpoint file" 1 (count_checkpoints dir);
  Alcotest.(check bool) "checkpoint reused, not rewritten" true
    ((Unix.stat file).Unix.st_mtime = mtime);
  Alcotest.(check int) "consumer matches cold"
    (cold (Simbench.Engines.detailed arch)).H.kernel_insns
    second.H.kernel_insns;
  (* the DBT fast-forwards under itself, so it gets its own checkpoint *)
  let third = run (Simbench.Engines.dbt arch) in
  Alcotest.(check int) "dbt adds its own checkpoint" 2 (count_checkpoints dir);
  Alcotest.(check int) "dbt matches cold"
    (cold (Simbench.Engines.dbt arch)).H.kernel_insns third.H.kernel_insns;
  (* and a repeat of the dbt cell is a pure hit *)
  let fourth = run (Simbench.Engines.dbt arch) in
  Alcotest.(check int) "repeat hits" third.H.kernel_insns fourth.H.kernel_insns;
  Alcotest.(check int) "no new files on repeat" 2 (count_checkpoints dir)

(* ------------------------------------------------------------------ *)
(* Verify snapshot-diff                                                 *)
(* ------------------------------------------------------------------ *)

(* compare_engines with checkpoints: full machine state must agree at
   every checkpoint engines reach at the same retired count, and the
   summed per-segment counters must equal an unsegmented run's. *)
let test_verify_snapshot_diff () =
  let arch = Sb_isa.Arch_sig.Sba in
  let program = Sb_verify.Verify.random_program ~arch ~seed:3 () in
  let engines =
    [
      Simbench.Engines.interp arch;
      Simbench.Engines.detailed arch;
      Simbench.Engines.virt arch;
      Simbench.Engines.dbt arch;
    ]
  in
  let checkpoints = [ 100; 300; 1_000 ] in
  match
    Sb_verify.Verify.compare_engines ~engines ~checkpoints
      ~nregs:(Sb_verify.Verify.nregs_of arch) program
  with
  | Error d ->
    Alcotest.failf "%s vs %s: %s" d.Sb_verify.Verify.reference_engine
      d.Sb_verify.Verify.diverging_engine d.Sb_verify.Verify.detail
  | Ok o ->
    Alcotest.(check bool) "reference halted" true o.Sb_verify.Verify.halted;
    Alcotest.(check bool) "mid-flight snapshots were taken" true
      (List.length o.Sb_verify.Verify.snapshots >= 1);
    (* segmentation must not change the reported counters *)
    let unsegmented =
      Sb_verify.Verify.run_outcome ~engine:(Simbench.Engines.interp arch)
        program
    in
    Alcotest.(check (list (pair string int)))
      "segmented counters match unsegmented"
      unsegmented.Sb_verify.Verify.counters o.Sb_verify.Verify.counters

(* ------------------------------------------------------------------ *)
(* Switch-point parsing                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_point () =
  let ok s p =
    match Checkpoint.parse_point s with
    | Ok p' -> Alcotest.(check string) s (Checkpoint.point_to_string p)
                 (Checkpoint.point_to_string p')
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "kernel" Checkpoint.Kernel_phase;
  ok "phase:kernel" Checkpoint.Kernel_phase;
  ok "insn:5000" (Checkpoint.At_insns 5000);
  ok "5000" (Checkpoint.At_insns 5000);
  List.iter
    (fun s ->
      match Checkpoint.parse_point s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ "xyz"; "insn:-3"; "insn:zero"; "0"; "-7"; "phase:cleanup" ]

(* ------------------------------------------------------------------ *)
(* Debugger snapshot/restore                                            *)
(* ------------------------------------------------------------------ *)

let test_debugger_snapshot_restore () =
  let arch = Sb_isa.Arch_sig.Sba in
  let support = Simbench.Engines.support arch in
  let m =
    machine_for ~support ~bench:Simbench.Suite.system_call ~iters:5
  in
  let dbg =
    Sb_sim.Debugger.create
      ~engine:(Simbench.Engines.interp arch)
      ~arch:(module Sb_arch_sba.Arch)
      m
  in
  let step n =
    match Sb_sim.Debugger.step ~n dbg with
    | Sb_sim.Debugger.Stepped -> ()
    | _ -> Alcotest.fail "unexpected stop while stepping"
  in
  step 50;
  let snap = Sb_sim.Debugger.snapshot dbg in
  Alcotest.(check int) "snapshot records retirement" 50 (Snapshot.insns snap);
  step 40;
  let digest_at_90 = Snapshot.digest (Sb_sim.Debugger.snapshot dbg) in
  Sb_sim.Debugger.restore dbg snap;
  Alcotest.(check int) "rewound retirement" 50
    (Sb_sim.Debugger.instructions_retired dbg);
  step 40;
  Alcotest.(check string) "replayed steps reconverge" digest_at_90
    (Snapshot.digest (Sb_sim.Debugger.snapshot dbg))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "snapshot"
    [
      ( "equivalence",
        [
          Alcotest.test_case "fast-forward = cold (all engines, both ISAs)"
            `Slow test_fast_forward_equivalence;
          Alcotest.test_case "at-insns switch credits overshoot" `Slow
            test_at_insns_equivalence;
          Alcotest.test_case "final machine state identical" `Slow
            test_final_state_identity;
          Alcotest.test_case "cross-engine restore is portable" `Slow
            test_cross_engine_restore;
          Alcotest.test_case "restore under armed fault plan" `Quick
            test_restore_under_fault_plan;
          Alcotest.test_case "verify snapshot-diff at checkpoints" `Quick
            test_verify_snapshot_diff;
          Alcotest.test_case "save scan = byte-by-byte reference" `Quick
            test_save_scan_matches_reference;
          Alcotest.test_case "restore makes no per-page garbage" `Quick
            test_restore_no_page_garbage;
        ] );
      ( "store",
        [
          Alcotest.test_case "tampered snapshot rejected" `Quick
            test_tampered_snapshot_rejected;
          Alcotest.test_case "truncated checkpoint evicted" `Quick
            test_truncated_checkpoint_evicted;
          Alcotest.test_case "save streams pages, no image copy" `Quick
            test_save_streams_pages;
          Alcotest.test_case "file round trip restores the same machine"
            `Quick test_file_roundtrip_identity;
          Alcotest.test_case "create sweeps corrupt checkpoints" `Quick
            test_create_sweeps_corrupt_checkpoints;
          Alcotest.test_case "adversarial checkpoint files" `Quick
            test_adversarial_checkpoints;
          Alcotest.test_case "one warm boot shared across engines" `Slow
            test_store_roundtrip_and_sharing;
          Alcotest.test_case "switch-point parsing" `Quick test_parse_point;
        ] );
      ( "debugger",
        [
          Alcotest.test_case "snapshot/restore rewinds exactly" `Quick
            test_debugger_snapshot_restore;
        ] );
    ]
