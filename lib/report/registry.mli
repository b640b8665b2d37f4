(** Every experiment [simbench report] can run, listed once.

    The paper's figures and the extension table come first, then the
    {!Ablations} studies, then two names a bare [simbench report] skips:
    [synthetic-faults] (the pool's crash and hang self-check, see
    docs/robustness.md) and [all] (every figure after one prefetch of the
    whole version sweep). *)

type experiment = {
  name : string;
  run : Experiments.config -> Experiments.run_opts -> string;
      (** measure, {!Experiments.record} every row, and render *)
  default : bool;  (** run by a bare [simbench report] *)
}

val all : experiment list
(** [fig2] … [fig8], [ext], the seven ablations, [synthetic-faults],
    [all]. *)
