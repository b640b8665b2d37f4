(** The QEMU release sweep (Figures 2, 6 and 8).

    Each entry names a release on the paper's x-axis and gives the DBT
    configuration modelling the implementation state of that release.  The
    knob trajectory encodes the documented changes the paper discusses:

    - v2.0.0 "Improvements to the TCG optimiser": pass budget 1 to 2, block
      cap 32 to 64, page cache enlarged and given a second level, lazy
      flushing — the across-the-board improvement visible in Figure 6.
    - v2.1.0 onwards: memory helpers gain indirection layers and the
      dispatch hot path gains verification work, the gradual control-flow
      and memory degradation of Figure 6.
    - v2.2.0 onwards: exception entry synchronises ever more state.
    - v2.5.0-rc0: the data-abort fast path (the off-scale Data-Fault
      improvement the paper calls out, with no matching SPEC change).
    - v2.6.0: profile-guided hot-trace superblocks (HQEMU-style region
      formation stitched across direct-chain seams; see docs/traces.md). *)

val all : (string * Config.t) list
(** In release order; first entry is the baseline the speedup plots divide
    by. *)

val baseline_name : string

val find : string -> Config.t option
val names : string list

val name_of : Config.t -> string option
(** Canonical (first-listed) release name shipping exactly this
    configuration; [None] when the configuration is not a registered
    release.  The inverse of {!find} up to release aliasing. *)

val canonical : string -> string
(** The first-listed release with the same configuration as [name]
    ([v2.5.0-rc2] is [v2.5.0-rc0]); [name] itself when it is not a
    registered release.  Equal canonical names mean equal engines, the
    property content-addressed result keys and engine filters need. *)
