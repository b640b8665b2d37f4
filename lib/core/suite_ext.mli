(** Extension benchmarks.

    The paper's conclusion lists "the development of additional targeted
    benchmarks" as future work; these three follow the SimBench methodology
    (three phases, portable kernels, one isolated mechanism each) and cover
    paths the original 18 leave unmeasured. *)

val nested_exception : Bench.t
(** A system call whose handler itself takes (and recovers from) a data
    abort: exercises exception-state banking and the nested entry/exit
    paths.  Handlers must spill ELR/SPSR to memory around the inner fault,
    exactly as a real kernel does. *)

val page_table_modification : Bench.t
(** Remap a page (rewrite its PTE), invalidate its TLB entry and touch it:
    the remap-latency path behind copy-on-write and page migration.  Each
    iteration must observe the {e new} mapping — caching the old translation
    past the TLBI is a correctness bug this benchmark would expose. *)

val exception_return : Bench.t
(** Minimal ERET round trip: the system-call benchmark measures entry +
    return; this isolates return by entering once per iteration through a
    pre-faulted path with an empty handler chain of ERETs. *)

val context_switch : Bench.t
(** Alternate ASIDs over a small working set: measures the cost of address-
    space switches, separating ASID-tagged TLB implementations (both spaces
    stay cached) from untagged ones (full flush per switch).  This is the
    ASID/PCID support the paper explicitly defers to future work. *)

val all : Bench.t list
