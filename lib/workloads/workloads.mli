(** SPEC CPU2006 INT analog workloads.

    Twelve synthetic integer applications whose instruction-mix signatures
    follow the SPEC INT programs the paper runs: sjeng's branchy search,
    mcf's TLB-hostile pointer chasing, libquantum's streaming array sweeps,
    perlbench's indirect-dispatch interpreter loop with system calls, and so
    on.  They are guest programs built on the same portable assembly and
    bare-metal runtime as the suite, so they run on every engine and both
    guest ISAs.

    These are not the SPEC benchmarks (those are proprietary and need an OS);
    what the paper's experiments require of them is (a) realistic,
    {e differing} operation densities (Figure 3's rightmost column) and
    (b) sensitivity profiles that differ across SimBench categories, so the
    version sweep moves them in different directions (Figures 2 and 8).
    DESIGN.md documents the substitution. *)

type t = {
  name : string;       (** short name, e.g. ["sjeng"] *)
  spec_name : string;  (** the SPEC program it models, e.g. ["458.sjeng"] *)
  weight : float;      (** weight in the overall rating (geometric mean) *)
  bench : Simbench.Bench.t;
}

val all : t list

val sjeng : t
val mcf : t

val run :
  ?platform:Simbench.Platform.t ->
  ?iters:int ->
  ?switch_at:Simbench.Checkpoint.point ->
  ?setup_engine:Sb_sim.Engine.t ->
  ?checkpoints:Simbench.Checkpoint.store ->
  support:Simbench.Support.t ->
  engine:Sb_sim.Engine.t ->
  t ->
  Simbench.Harness.outcome
(** Run one workload; same contract as {!Simbench.Harness.run}, including
    checkpointed fast-forward through [switch_at]/[checkpoints].  Without
    [iters] it runs the workload's 40 kernel passes (the workloads fix
    their own working-set sizes; iterations scale run time). *)
