(** SimBench harness: runs one benchmark on one engine and reports the
    paper's measurement triple — kernel run time, iteration count, and the
    counters behind the operation-density metric.

    Iteration counts default to Figure 3's values divided by [scale]
    (simulators-in-a-simulator run slower than real hardware); both the
    scaled count and the scale are recorded so results are reported
    "with run time and iteration counts", as the paper requires. *)

type outcome = {
  bench_name : string;
  engine_name : string;
  arch_name : string;
  iters : int;
  scale : int;
  result : Sb_sim.Run_result.t;
  kernel_seconds : float;
  kernel_insns : int;
  tested_ops : int;
}

exception Benchmark_failed of string
(** The guest reported failure (non-zero exit), did not halt, or never
    signalled its kernel phase. *)

val default_scale : int
(** 20000: Figure 3 iteration counts divided by this keep a full-suite,
    all-engine sweep within interactive time. *)

val machine : Platform.t -> Sb_sim.Machine.t
(** A machine for [platform] built around this process's pooled RAM
    buffer of the platform's size, cleared first: the same state as
    {!Platform.machine} with a fresh CPU, bus and device set, without
    mapping the RAM again.  The clear zeroes only the pages written
    since the previous one ({!Sb_mem.Phys_mem.clear}), so it costs time in
    proportion to what the last run touched, not to the RAM size.  The
    buffer lives outside the OCaml heap and is resident only in the pages
    some run in this process has written, so a process holds the union of
    its runs' working sets, not the RAM size.  The machine is valid until
    the next call in the process, which clears and reuses the same
    buffer.  A forked child starts its own pool on its first call and
    never writes into the buffer it shares copy-on-write with its parent;
    a persistent pool worker then keeps that buffer for every cell it
    runs. *)

val run :
  ?platform:Platform.t ->
  ?scale:int ->
  ?iters:int ->
  ?switch_at:Checkpoint.point ->
  ?setup_engine:Sb_sim.Engine.t ->
  ?checkpoints:Checkpoint.store ->
  support:Support.t ->
  engine:Sb_sim.Engine.t ->
  Bench.t ->
  outcome
(** [iters] overrides the scaled default entirely.

    [switch_at] enables checkpointed fast-forward: the run executes up to
    the switch point under [setup_engine] — or restores a matching
    snapshot from [checkpoints] — and only then runs the timed kernel
    under [engine].  The default setup engine matches the timed engine's
    retirement granularity: per-insn engines (interp, detailed, virt,
    native) all share one interpreter-produced checkpoint, while the DBT
    fast-forwards under itself so its block-aligned perf attribution at
    phase edges cancels out of the count.  [kernel_insns] credits back any
    instructions the setup run overshot into the kernel, so checkpointed
    and cold runs report identical counts.  [kernel_seconds] and the
    kernel perf counters cover the timed engine's share only.

    Every run, cold, warm restore or fast-forward miss alike, executes on
    a fresh {!machine}: guest RAM is built once per size per process and
    cleared before each run, page by page as the last run dirtied it, so a
    run's host cost is what it simulates, not the 32 MiB machine.  Nothing
    of a previous run is visible to the next one. *)

val density : outcome -> float
(** Tested operations per kernel instruction (the Figure 3 metric). *)

val run_suite :
  ?platform:Platform.t ->
  ?scale:int ->
  ?switch_at:Checkpoint.point ->
  ?setup_engine:Sb_sim.Engine.t ->
  ?checkpoints:Checkpoint.store ->
  support:Support.t ->
  engine:Sb_sim.Engine.t ->
  unit ->
  outcome list
(** All 18 benchmarks in Figure 3 order. *)
