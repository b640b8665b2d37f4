(** Engine registry: every execution engine instantiated for both guest
    ISAs, plus DBT engines configured for arbitrary version configurations.

    Paper-role naming: [dbt] plays QEMU-DBT, [interp] plays SimIt-ARM,
    [detailed] plays Gem5, [virt] plays QEMU-KVM, [native] plays the
    hardware baseline. *)

type arch = Sb_isa.Arch_sig.arch_id

val interp : arch -> Sb_sim.Engine.t
val dbt : arch -> Sb_sim.Engine.t
val detailed : arch -> Sb_sim.Engine.t
val virt : arch -> Sb_sim.Engine.t
val native : arch -> Sb_sim.Engine.t

val dbt_configured : arch -> Sb_dbt.Config.t -> Sb_sim.Engine.t
(** A DBT engine with an explicit configuration (used by the version sweep
    and the ablation benches). *)

val dbt_version : arch -> string -> Sb_sim.Engine.t
(** By {!Sb_dbt.Version} release name; raises [Not_found] on an unknown
    name. *)

val interp_configured : arch -> Sb_interp.Interp.Config.t -> Sb_sim.Engine.t

val of_string : arch -> string -> (Sb_sim.Engine.t, string) result
(** Parse an engine spelling: [interp], [dbt], [detailed]/[gem5],
    [virt]/[kvm], [native]/[hw], or [dbt\@VERSION] by {!Sb_dbt.Version}
    release name.  The shared parser behind the CLI's [--engine] and the
    serve protocol's ["engine"] field; errors list the valid versions. *)

val canonical_name : string -> string
(** Canonical form of an engine spelling accepted by {!of_string}:
    paper-role aliases map to their engine ([gem5] -> [detailed]), and
    [dbt\@ALIAS] release aliases map to the first registered name of the
    same configuration — so equal canonical names mean equal engines, the
    property content-addressed result keys need.  Unknown spellings are
    returned unchanged ({!of_string} is the validator). *)

val paper_set : arch -> (string * Sb_sim.Engine.t) list
(** The Figure 7 column set, labelled with the paper's platform names. *)

val all_arches : arch list

val arch_name : arch -> string
(** ["sba"] / ["vlx"]: the arch names of rows, cell specs and cache
    keys. *)

val arch_of_name : string -> (arch, string) result
(** Accepts [sba]/[sba32]/[arm] and [vlx]/[vlx32]/[x86]; the shared
    parser behind the CLI's [--arch] and the serve protocol's ["arch"]
    field. *)

val support : arch -> Support.t
(** The matching architecture support package. *)
