(* Unit tests for the detailed engine's timing substrates. *)

module Eq = Sb_interp.Event_queue
module Cache = Sb_interp.Cache_model

let test_event_queue_order () =
  let q = Eq.create () in
  Eq.schedule q ~time:5 "c";
  Eq.schedule q ~time:1 "a";
  Eq.schedule q ~time:3 "b";
  Alcotest.(check int) "length" 3 (Eq.length q);
  let pop () = match Eq.pop q with Some (_, x) -> x | None -> "?" in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Eq.is_empty q)

let test_event_queue_fifo_ties () =
  let q = Eq.create () in
  Eq.schedule q ~time:2 "x";
  Eq.schedule q ~time:2 "y";
  Eq.schedule q ~time:2 "z";
  let pop () = match Eq.pop q with Some (_, x) -> x | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check string) "insertion order preserved" "xyz" (first ^ second ^ third)

let test_event_queue_clear () =
  let q = Eq.create () in
  Eq.schedule q ~time:1 1;
  Eq.clear q;
  Alcotest.(check bool) "cleared" true (Eq.is_empty q);
  Alcotest.(check bool) "pop none" true (Eq.pop q = None)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1000))
    (fun times ->
      let q = Eq.create () in
      List.iter (fun t -> Eq.schedule q ~time:t t) times;
      let rec drain acc =
        match Eq.pop q with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

let test_cache_model () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x100);
  Alcotest.(check bool) "warm hit" true (Cache.access c 0x100);
  Alcotest.(check bool) "same line" true (Cache.access c 0x11F);
  (* 1024-byte direct-mapped: +1024 conflicts *)
  Alcotest.(check bool) "conflict" false (Cache.access c 0x500);
  Alcotest.(check bool) "evicted" false (Cache.access c 0x100);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 3 (Cache.misses c);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.access c 0x11F)

let test_cache_validation () =
  let raised f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "size pow2" true
    (raised (fun () -> Cache.create ~size_bytes:1000 ~line_bytes:32));
  Alcotest.(check bool) "line pow2" true
    (raised (fun () -> Cache.create ~size_bytes:1024 ~line_bytes:24))

(* The timing model must report cycles >= instructions. *)
module Detailed_sba = Sb_detailed.Detailed.Make (Sb_arch_sba.Arch)

let test_cycles_exceed_insns () =
  let module SI = Sb_arch_sba.Insn in
  let open Sb_asm.Assembler in
  let program =
    SI.Asm.assemble ~base:0 ~entry:"start"
      ([ Label "start"; Insn (SI.Movw (2, 200)); Label "loop" ]
      @ List.map
          (fun i -> Insn i)
          [
            SI.Add (3, 3, SI.Rm 2);
            SI.Sub (2, 2, SI.Imm 1);
            SI.Cmp (2, SI.Imm 0);
            SI.Bcc (Sb_isa.Uop.Ne, "loop");
            SI.Halt;
          ])
  in
  let machine = Sb_sim.Machine.create ~ram_size:(1 lsl 20) () in
  Sb_sim.Machine.load_program machine program;
  let result = Sb_sim.Engine.run (module Detailed_sba) ~max_insns:100_000 machine in
  let insns = Sb_sim.Run_result.insns result in
  let cycles = Detailed_sba.last_cycles () in
  Alcotest.(check bool) "ran" true (insns > 700);
  Alcotest.(check bool)
    (Printf.sprintf "cycles (%d) >= insns (%d)" cycles insns)
    true (cycles >= insns)

let () =
  Alcotest.run "sb_detailed"
    [
      ( "event_queue",
        [
          Alcotest.test_case "order" `Quick test_event_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
          Alcotest.test_case "clear" `Quick test_event_queue_clear;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
        ] );
      ( "cache_model",
        [
          Alcotest.test_case "behaviour" `Quick test_cache_model;
          Alcotest.test_case "validation" `Quick test_cache_validation;
        ] );
      ( "timing", [ Alcotest.test_case "cycles >= insns" `Quick test_cycles_exceed_insns ] );
    ]
