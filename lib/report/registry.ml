type experiment = {
  name : string;
  run : Experiments.config -> Experiments.run_opts -> string;
  default : bool;
}

let entry name run = { name; run; default = true }

let figures =
  Experiments.
    [
      entry "fig2" (fun config opts -> fig2 ~config ~opts ());
      entry "fig3" (fun config _ -> fig3 ~config ());
      entry "fig4" (fun _ _ -> fig4 ());
      entry "fig5" (fun _ _ -> fig5 ());
      entry "fig6" (fun config opts -> fig6 ~config ~opts ());
      entry "fig7" (fun config opts -> fig7 ~config ~opts ());
      entry "fig8" (fun config opts -> fig8 ~config ~opts ());
      entry "ext" (fun config opts -> extensions ~config ~opts ());
    ]

(* the whole version sweep in one pool pass before rendering: with -j N
   every column of Figures 2, 6 and 8 fills the pool at once *)
let all_figures config opts =
  ignore (Experiments.columns ~opts ~config (Experiments.version_sweep config));
  String.concat "\n\n" (List.map (fun e -> e.run config opts) figures)

let all =
  figures
  @ List.map
      (fun (spec : Ablations.spec) ->
        entry spec.name (fun config opts -> Ablations.sweep ~opts ~config spec))
      Ablations.all
  @ [
      (* a deliberate crash/hang harness check, see docs/robustness.md *)
      {
        name = "synthetic-faults";
        run = (fun _ opts -> Experiments.synthetic_faults ~opts ());
        default = false;
      };
      { name = "all"; run = all_figures; default = false };
    ]
