(** The one namespace of benchmark names.

    Every verb that takes a name ([simbench run], [disasm], [debug],
    [lint]), the serve daemon and [compare]'s category attribution resolve
    it here, so a name means the same bench everywhere. *)

val all : Simbench.Bench.t list
(** The Figure 3 suite, then the extension suite, then the SPEC-analog
    workloads' benches: the order [simbench list] prints.  Names are
    unique when case is ignored. *)

val find : string -> (Simbench.Bench.t, string) result
(** The bench of {!all} with this name, ignoring ASCII case.  The error
    reads ["unknown benchmark or workload \"NAME\""]. *)
