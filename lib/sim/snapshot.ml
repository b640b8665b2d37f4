(* Unified architectural-state snapshot.

   Everything an engine needs to resume a guest lives in [Machine.t]: the
   CPU register file, physical RAM, and the platform devices.  Engine
   internals (decode caches, block caches, traces, micro-TLBs, software
   TLBs) are *derived* state — every engine rebuilds them from the machine
   on demand — so a snapshot that captures the machine alone is complete
   and engine-portable: save under interp, restore under detailed.

   Memory is stored sparsely (zero pages omitted) and the sparse image is
   digest-tagged; [restore] refuses a snapshot whose pages no longer match
   the digest, which is what turns a corrupt checkpoint file into a clean
   load error instead of a wrong simulation. *)

(* 2: checkpoint files stream the snapshot as one record per page
   (Simbench.Checkpoint); the type is unchanged *)
let schema_version = 2
let page_size = 4096

type cpu_state = {
  s_regs : int array;
  s_pc : int;
  s_kernel_mode : bool;
  s_irq_enabled : bool;
  s_flag_n : bool;
  s_flag_z : bool;
  s_flag_c : bool;
  s_flag_v : bool;
  s_cop : int array;
}

type device_state = {
  s_uart : Sb_mem.Uart.state;
  s_intc : Sb_mem.Intc.state;
  s_timer : Sb_mem.Timer.state;
  s_devid : Sb_mem.Devid.state;
  s_bench : Sb_mem.Benchdev.state;
  s_dev_accesses : int;
}

type t = {
  s_schema : int;
  s_ram_size : int;
  s_cpu : cpu_state;
  s_pages : (int * string) list;
  s_mem_digest : string;
  s_devices : device_state;
  s_insns : int;
  s_insns_into_kernel : int;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let digest_pages ~ram_size pages =
  let buf = Buffer.create (List.length pages * 24 + 32) in
  Buffer.add_string buf (string_of_int ram_size);
  List.iter
    (fun (idx, data) ->
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int idx);
      Buffer.add_string buf (Digest.string data))
    pages;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let save ?(insns = 0) ?(insns_into_kernel = 0) (m : Machine.t) =
  let cpu = m.Machine.cpu in
  let s_cpu =
    {
      s_regs = Array.copy cpu.Cpu.regs;
      s_pc = cpu.Cpu.pc;
      s_kernel_mode = cpu.Cpu.mode = Sb_mmu.Access.Kernel;
      s_irq_enabled = cpu.Cpu.irq_enabled;
      s_flag_n = cpu.Cpu.flag_n;
      s_flag_z = cpu.Cpu.flag_z;
      s_flag_c = cpu.Cpu.flag_c;
      s_flag_v = cpu.Cpu.flag_v;
      s_cop = Array.copy cpu.Cpu.cop;
    }
  in
  let ram = Sb_mem.Bus.ram m.Machine.bus in
  let npages = (m.Machine.ram_size + page_size - 1) / page_size in
  let pages = ref [] in
  (* scan in place and copy out only resident pages: most of a 32 MiB
     machine is zero, and a copy per page would make tens of megabytes of
     garbage per save *)
  for idx = npages - 1 downto 0 do
    let addr = idx * page_size in
    let len = min page_size (m.Machine.ram_size - addr) in
    if not (Sb_mem.Phys_mem.is_zero ram ~addr ~len) then
      pages :=
        (idx, Bytes.unsafe_to_string (Sb_mem.Phys_mem.blit_out ram ~addr ~len))
        :: !pages
  done;
  let pages = !pages in
  let s_devices =
    {
      s_uart = Sb_mem.Uart.state m.Machine.uart;
      s_intc = Sb_mem.Intc.state m.Machine.intc;
      s_timer = Sb_mem.Timer.state m.Machine.timer;
      s_devid = Sb_mem.Devid.state m.Machine.devid;
      s_bench = Sb_mem.Benchdev.state m.Machine.benchdev;
      s_dev_accesses = Sb_mem.Bus.device_accesses m.Machine.bus;
    }
  in
  {
    s_schema = schema_version;
    s_ram_size = m.Machine.ram_size;
    s_cpu;
    s_pages = pages;
    s_mem_digest = digest_pages ~ram_size:m.Machine.ram_size pages;
    s_devices;
    s_insns = insns;
    s_insns_into_kernel = insns_into_kernel;
  }

let validate t =
  if t.s_schema <> schema_version then
    corrupt "snapshot schema %d, expected %d" t.s_schema schema_version;
  if Array.length t.s_cpu.s_regs <> 16 then
    corrupt "snapshot register file has %d entries"
      (Array.length t.s_cpu.s_regs);
  let npages = (t.s_ram_size + page_size - 1) / page_size in
  List.iter
    (fun (idx, data) ->
      if idx < 0 || idx >= npages then
        corrupt "snapshot page %d outside RAM of %d bytes" idx t.s_ram_size;
      let expect = min page_size (t.s_ram_size - (idx * page_size)) in
      if String.length data <> expect then
        corrupt "snapshot page %d has %d bytes, expected %d" idx
          (String.length data) expect)
    t.s_pages;
  let digest = digest_pages ~ram_size:t.s_ram_size t.s_pages in
  if not (String.equal digest t.s_mem_digest) then
    corrupt "memory digest mismatch: snapshot says %s, pages hash to %s"
      t.s_mem_digest digest

let restore ?(validated = false) t (m : Machine.t) =
  if m.Machine.ram_size <> t.s_ram_size then
    corrupt "snapshot RAM is %d bytes, machine has %d" t.s_ram_size
      m.Machine.ram_size;
  (* [validated] skips re-hashing every page: the checkpoint store
     validates a snapshot once when it enters the process and then reuses
     it for many restores — per-restore validation would dominate the
     warm path it exists to accelerate *)
  if not validated then validate t;
  let cpu = m.Machine.cpu in
  Array.blit t.s_cpu.s_regs 0 cpu.Cpu.regs 0 (Array.length cpu.Cpu.regs);
  cpu.Cpu.pc <- t.s_cpu.s_pc;
  cpu.Cpu.mode <-
    (if t.s_cpu.s_kernel_mode then Sb_mmu.Access.Kernel
     else Sb_mmu.Access.User);
  cpu.Cpu.irq_enabled <- t.s_cpu.s_irq_enabled;
  cpu.Cpu.flag_n <- t.s_cpu.s_flag_n;
  cpu.Cpu.flag_z <- t.s_cpu.s_flag_z;
  cpu.Cpu.flag_c <- t.s_cpu.s_flag_c;
  cpu.Cpu.flag_v <- t.s_cpu.s_flag_v;
  Array.blit t.s_cpu.s_cop 0 cpu.Cpu.cop 0
    (min (Array.length t.s_cpu.s_cop) (Array.length cpu.Cpu.cop));
  let ram = Sb_mem.Bus.ram m.Machine.bus in
  Sb_mem.Phys_mem.clear ram;
  (* [load] only reads its image, so the page goes in without a copy: a
     copy per page would be a 4 KiB major-heap block each, about a
     megaword of garbage per mcf restore *)
  List.iter
    (fun (idx, data) ->
      Sb_mem.Phys_mem.load ram ~addr:(idx * page_size)
        (Bytes.unsafe_of_string data))
    t.s_pages;
  Sb_mem.Uart.restore m.Machine.uart t.s_devices.s_uart;
  Sb_mem.Intc.restore m.Machine.intc t.s_devices.s_intc;
  Sb_mem.Timer.restore m.Machine.timer t.s_devices.s_timer;
  Sb_mem.Devid.restore m.Machine.devid t.s_devices.s_devid;
  Sb_mem.Benchdev.restore m.Machine.benchdev t.s_devices.s_bench;
  Sb_mem.Bus.set_device_accesses m.Machine.bus t.s_devices.s_dev_accesses;
  Machine.touch m

let insns t = t.s_insns
let insns_into_kernel t = t.s_insns_into_kernel

(* Identity digest over the full snapshot value.  Marshal of a snapshot is
   deterministic (immutable structural data, no sharing surprises at these
   sizes), so equal machine states hash equal — the basis of the verify
   snapshot-diff. *)
let digest t = Digest.to_hex (Digest.string (Marshal.to_string t []))

let pp_summary ppf t =
  Format.fprintf ppf
    "snapshot v%d: pc=%a, %d/%d pages resident, %d insns (%d into kernel), mem %s"
    t.s_schema Sb_util.U32.pp t.s_cpu.s_pc
    (List.length t.s_pages)
    ((t.s_ram_size + page_size - 1) / page_size)
    t.s_insns t.s_insns_into_kernel
    (String.sub t.s_mem_digest 0 8)
