(* Quickstart: assemble a bare-metal guest program, run it on two different
   simulation engines, and inspect what happened.

     dune exec examples/quickstart.exe

   This uses the lowest-level public API: the SBA-32 assembler, a machine,
   and an engine.  For running the actual benchmark suite, see
   compare_engines.ml; for the paper's experiments, `simbench report`. *)

module SI = Sb_arch_sba.Insn
open Sb_asm.Assembler

(* A guest program: print a message over the UART, then compute a few
   Fibonacci numbers and leave the result in r3. *)
let program =
  let insns l = List.map (fun i -> Insn i) l in
  let print_string s =
    SI.li 1 Sb_sim.Machine.Map.uart_base
    @ List.concat_map
        (fun c -> [ SI.Movw (0, Char.code c); SI.Str (0, 1, 0) ])
        (List.init (String.length s) (String.get s))
  in
  SI.Asm.assemble ~base:0 ~entry:"start"
    ([ Label "start" ]
    @ insns (print_string "Hello, SimBench!\n")
    @ insns [ SI.Movw (2, 1); SI.Movw (3, 1); SI.Movw (4, 20) ]
    @ [ Label "fib" ]
    @ insns
        [
          SI.Add (5, 2, SI.Rm 3);   (* next = a + b *)
          SI.Mov (2, 3);
          SI.Mov (3, 5);
          SI.Sub (4, 4, SI.Imm 1);
          SI.Cmp (4, SI.Imm 0);
          SI.Bcc (Sb_isa.Uop.Ne, "fib");
          SI.Halt;
        ])

let run_on engine_name (engine : Sb_sim.Engine.t) =
  let machine = Sb_sim.Machine.create () in
  Sb_sim.Machine.load_program machine program;
  let result = Sb_sim.Engine.run engine machine in
  Printf.printf "--- %s ---\n" engine_name;
  Printf.printf "guest output: %s" result.Sb_sim.Run_result.uart_output;
  Printf.printf "fib(22) in r3 = %d\n" machine.Sb_sim.Machine.cpu.Sb_sim.Cpu.regs.(3);
  Printf.printf "retired %d instructions in %.4fs (%s)\n\n"
    (Sb_sim.Run_result.insns result)
    result.Sb_sim.Run_result.wall_seconds
    (Format.asprintf "%a" Sb_sim.Run_result.pp_stop result.Sb_sim.Run_result.stop)

let () =
  let arch = Sb_isa.Arch_sig.Sba in
  run_on "fast interpreter (SimIt-ARM analog)" (Simbench.Engines.interp arch);
  run_on "dynamic binary translator (QEMU analog)" (Simbench.Engines.dbt arch);
  (* both engines must agree on the architectural result, whatever their
     performance characteristics *)
  print_endline "Same answer from both engines; see compare_engines.ml for timing."
