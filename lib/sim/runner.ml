let default_max_insns = 2_000_000_000

(* Process-wide instruction-budget watchdog: engines resolve their
   [?max_insns] default through this, so the harness can bound every cell
   of a run without threading an argument through each figure driver.
   Forked pool workers inherit the parent's setting. *)
let insn_budget = ref default_max_insns

let set_insn_budget n =
  if n <= 0 then invalid_arg "Runner.set_insn_budget: budget must be positive";
  insn_budget := n
