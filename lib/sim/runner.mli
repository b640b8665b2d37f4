(** The process-wide instruction budget that bounds every engine run
    ({!Guest.run}). *)

val default_max_insns : int

val insn_budget : int ref
(** Process-wide watchdog budget: the value engines use when [?max_insns]
    is not passed explicitly.  Defaults to {!default_max_insns}.  The
    bench harness lowers it ([bench --insn-budget N]) so a runaway cell —
    an engine bug that turns a bounded kernel into an unbounded spin —
    stops with [Insn_limit] (surfacing as a failed cell) instead of
    burning hours.  Forked pool workers inherit the parent's setting. *)

val set_insn_budget : int -> unit
(** Set {!insn_budget}; raises [Invalid_argument] on a non-positive
    budget. *)
