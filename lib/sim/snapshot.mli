(** Serializable unified architectural-state snapshot.

    One canonical state type every engine can save and restore: CPU
    registers/flags/PC, coprocessor (MMU) registers, sparse digest-tagged
    physical memory, and the platform device set including the benchmark
    device's phase.  Engine-private caches (decode caches, DBT block caches
    and traces, micro-TLBs, software TLBs) are deliberately absent — they
    are derived state, rebuilt lazily by whichever engine resumes the
    snapshot ({!Machine.touch} invalidation makes that safe).

    The snapshot type is a plain immutable structure with no closures, so
    [Marshal] round-trips it; the checkpoint store writes it to disk as
    marshal records, one per resident page. *)

val schema_version : int
(** Bump when the snapshot layout or the checkpoint file layout changes;
    folded into checkpoint cache keys so stale checkpoint files miss
    instead of mis-restoring. *)

val page_size : int

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
      (** Bus device-access ordinal — architectural for {!Sb_fault}'s
          deterministic injection, so resumed runs fault the same Nth
          access a cold run would. *)
}

type t = {
  s_schema : int;
  s_ram_size : int;
  s_cpu : cpu_state;
  s_pages : (int * string) list;
      (** Non-zero 4 KiB pages as [(page index, raw bytes)]; zero pages
          are implied by [s_ram_size]. *)
  s_mem_digest : string;  (** digest over [s_ram_size] and [s_pages] *)
  s_devices : device_state;
  s_insns : int;  (** instructions retired before the snapshot *)
  s_insns_into_kernel : int;
      (** of those, how many ran after the kernel-start phase write — a
          resumed run adds this to its measured kernel count so
          checkpointed [kernel_insns] equal a cold run's *)
}

exception Corrupt of string
(** Raised by {!restore} when the snapshot fails validation (schema or
    RAM-size mismatch, out-of-range or short pages, memory-digest
    mismatch). *)

val save : ?insns:int -> ?insns_into_kernel:int -> Machine.t -> t
(** Capture the machine's complete architectural state.  The machine is
    not modified.  [insns]/[insns_into_kernel] record the producing run's
    progress (see {!t}). *)

val validate : t -> unit
(** Raises {!Corrupt} if the snapshot is internally inconsistent (bad
    schema, out-of-range or short pages, memory-digest mismatch). *)

val restore : ?validated:bool -> t -> Machine.t -> unit
(** Overwrite the machine's architectural state with the snapshot's and
    bump {!Machine.val-touch} so engines rebuild cached translation state.
    The machine must have the same RAM size.  Raises {!Corrupt} on
    validation failure; the machine is untouched in that case.

    [validated] (default [false]) skips the {!validate} pass — for callers
    like the checkpoint store that validate a snapshot once at load and
    then restore it many times; re-hashing every page per restore would
    cost more than the setup simulation the restore replaces. *)

val insns : t -> int
val insns_into_kernel : t -> int

val digest : t -> string
(** Identity digest of the full snapshot: equal machine states produce
    equal digests.  Used by the verify snapshot-diff and the checkpoint
    smoke test. *)

val pp_summary : Format.formatter -> t -> unit
