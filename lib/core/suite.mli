(** The SimBench suite: 18 benchmarks in 5 categories (Figure 3). *)

val all : Bench.t list

val find : string -> Bench.t option
(** A Figure 3 bench by name, ignoring case, e.g. ["small blocks"].  The
    tools resolve names through [Sb_workloads.Target.find], which also
    knows the extension suite and the workloads. *)

val by_category : Category.t -> Bench.t list

(** Individual benchmarks, in Figure 3 order. *)

val small_blocks : Bench.t

val large_blocks : Bench.t
val inter_page_direct : Bench.t
val inter_page_indirect : Bench.t
val intra_page_direct : Bench.t
val intra_page_indirect : Bench.t
val data_access_fault : Bench.t
val instruction_access_fault : Bench.t
val undefined_instruction : Bench.t
val system_call : Bench.t
val external_software_interrupt : Bench.t
val memory_mapped_device : Bench.t
val coprocessor_access : Bench.t
val cold_memory_access : Bench.t
val hot_memory_access : Bench.t
val nonprivileged_access : Bench.t
val tlb_eviction : Bench.t
val tlb_flush : Bench.t
