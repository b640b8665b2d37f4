(* Tests for physical memory, bus routing and devices. *)

let make_machine () = Sb_sim.Machine.create ~ram_size:(1 lsl 20) ()

let test_phys_mem_rw () =
  let m = Sb_mem.Phys_mem.create ~size:4096 in
  Sb_mem.Phys_mem.write32 m 0 0xDEADBEEF;
  Alcotest.(check int) "read32" 0xDEADBEEF (Sb_mem.Phys_mem.read32 m 0);
  Alcotest.(check int) "read8 low" 0xEF (Sb_mem.Phys_mem.read8 m 0);
  Alcotest.(check int) "read8 high" 0xDE (Sb_mem.Phys_mem.read8 m 3);
  Alcotest.(check int) "read16" 0xBEEF (Sb_mem.Phys_mem.read16 m 0);
  Sb_mem.Phys_mem.write8 m 1 0x42;
  Alcotest.(check int) "byte patch" 0xDEAD42EF (Sb_mem.Phys_mem.read32 m 0)

let test_phys_mem_bounds () =
  let m = Sb_mem.Phys_mem.create ~size:16 in
  Alcotest.check_raises "oob read" (Sb_mem.Phys_mem.Out_of_range 16) (fun () ->
      ignore (Sb_mem.Phys_mem.read8 m 16));
  Alcotest.check_raises "straddling word" (Sb_mem.Phys_mem.Out_of_range 13) (fun () ->
      ignore (Sb_mem.Phys_mem.read32 m 13))

(* pins the unboxed read32/write32 recomposition: exact round-trips at every
   byte alignment, truncation to 32 bits, and unchanged Out_of_range
   behaviour (one bounds check up front, never a partial write) *)
let test_phys_mem_word_recomposition () =
  let m = Sb_mem.Phys_mem.create ~size:64 in
  List.iter
    (fun v ->
      List.iter
        (fun addr ->
          Sb_mem.Phys_mem.write32 m addr v;
          Alcotest.(check int)
            (Printf.sprintf "round trip %#x @%d" v addr)
            (v land 0xFFFF_FFFF)
            (Sb_mem.Phys_mem.read32 m addr))
        [ 0; 1; 2; 3; 17 ])
    [ 0; 1; 0xFFFF_FFFF; 0x8000_0000; 0x0102_0304; 0xDEADBEEF ];
  (* values above 32 bits truncate exactly like the old Int32 path *)
  Sb_mem.Phys_mem.write32 m 0 0x1_2345_6789;
  Alcotest.(check int) "truncated" 0x2345_6789 (Sb_mem.Phys_mem.read32 m 0);
  (* little-endian byte order is observable through read8 *)
  Sb_mem.Phys_mem.write32 m 8 0xAABBCCDD;
  Alcotest.(check int) "byte 0" 0xDD (Sb_mem.Phys_mem.read8 m 8);
  Alcotest.(check int) "byte 3" 0xAA (Sb_mem.Phys_mem.read8 m 11);
  (* bounds: negative, straddling and far-out addresses all raise before
     touching memory *)
  Alcotest.check_raises "oob write32" (Sb_mem.Phys_mem.Out_of_range 61) (fun () ->
      Sb_mem.Phys_mem.write32 m 61 0);
  Alcotest.check_raises "negative write32" (Sb_mem.Phys_mem.Out_of_range (-1))
    (fun () -> Sb_mem.Phys_mem.write32 m (-1) 0);
  Alcotest.check_raises "oob read32" (Sb_mem.Phys_mem.Out_of_range 61) (fun () ->
      ignore (Sb_mem.Phys_mem.read32 m 61));
  Alcotest.check_raises "negative read32" (Sb_mem.Phys_mem.Out_of_range (-1))
    (fun () -> ignore (Sb_mem.Phys_mem.read32 m (-1)));
  (* a refused write left the last word intact *)
  Sb_mem.Phys_mem.write32 m 60 0x11223344;
  (try Sb_mem.Phys_mem.write32 m 61 0xFFFFFFFF with Sb_mem.Phys_mem.Out_of_range _ -> ());
  Alcotest.(check int) "no partial write" 0x11223344 (Sb_mem.Phys_mem.read32 m 60)

(* pins the unboxed read16/write16 recomposition exactly like the 32-bit
   test above: round-trips at every alignment, truncation to 16 bits,
   little-endian order, and Out_of_range before any partial write *)
let test_phys_mem_halfword_recomposition () =
  let m = Sb_mem.Phys_mem.create ~size:64 in
  List.iter
    (fun v ->
      List.iter
        (fun addr ->
          Sb_mem.Phys_mem.write16 m addr v;
          Alcotest.(check int)
            (Printf.sprintf "round trip %#x @%d" v addr)
            (v land 0xFFFF)
            (Sb_mem.Phys_mem.read16 m addr))
        [ 0; 1; 2; 3; 17 ])
    [ 0; 1; 0xFFFF; 0x8000; 0x0102; 0xBEEF ];
  (* values above 16 bits truncate to the low halfword *)
  Sb_mem.Phys_mem.write16 m 0 0x1_2345;
  Alcotest.(check int) "truncated" 0x2345 (Sb_mem.Phys_mem.read16 m 0);
  (* little-endian byte order is observable through read8 *)
  Sb_mem.Phys_mem.write16 m 8 0xAABB;
  Alcotest.(check int) "byte 0" 0xBB (Sb_mem.Phys_mem.read8 m 8);
  Alcotest.(check int) "byte 1" 0xAA (Sb_mem.Phys_mem.read8 m 9);
  Alcotest.check_raises "oob write16" (Sb_mem.Phys_mem.Out_of_range 63) (fun () ->
      Sb_mem.Phys_mem.write16 m 63 0);
  Alcotest.check_raises "negative write16" (Sb_mem.Phys_mem.Out_of_range (-1))
    (fun () -> Sb_mem.Phys_mem.write16 m (-1) 0);
  Alcotest.check_raises "oob read16" (Sb_mem.Phys_mem.Out_of_range 63) (fun () ->
      ignore (Sb_mem.Phys_mem.read16 m 63));
  Alcotest.check_raises "negative read16" (Sb_mem.Phys_mem.Out_of_range (-1))
    (fun () -> ignore (Sb_mem.Phys_mem.read16 m (-1)));
  (* a refused write left the last halfword intact *)
  Sb_mem.Phys_mem.write16 m 62 0x1122;
  (try Sb_mem.Phys_mem.write16 m 63 0xFFFF with Sb_mem.Phys_mem.Out_of_range _ -> ());
  Alcotest.(check int) "no partial write" 0x1122 (Sb_mem.Phys_mem.read16 m 62)

(* the hoisted single-compare bounds check (power-of-two sizes compare the
   high address bits against one mask) must agree with the generic
   two-compare form at every boundary address: sweep [size-3 .. size] for
   every width on both a power-of-two and an odd-sized memory *)
let test_phys_mem_bounds_boundary () =
  List.iter
    (fun size ->
      let m = Sb_mem.Phys_mem.create ~size in
      List.iter
        (fun (width, read, write) ->
          for addr = size - 3 to size do
            let in_range = addr >= 0 && addr + width <= size in
            let label = Printf.sprintf "size=%d w=%d @%d" size width addr in
            if in_range then begin
              write m addr 0x5A;
              Alcotest.(check int) label 0x5A (read m addr land 0xFF)
            end
            else begin
              Alcotest.check_raises (label ^ " read")
                (Sb_mem.Phys_mem.Out_of_range addr) (fun () ->
                  ignore (read m addr));
              Alcotest.check_raises (label ^ " write")
                (Sb_mem.Phys_mem.Out_of_range addr) (fun () -> write m addr 0)
            end
          done)
        [
          (1, Sb_mem.Phys_mem.read8, Sb_mem.Phys_mem.write8);
          (2, Sb_mem.Phys_mem.read16, Sb_mem.Phys_mem.write16);
          (4, Sb_mem.Phys_mem.read32, Sb_mem.Phys_mem.write32);
        ])
    [ 64; 80 ]

(* the unchecked accessors must agree byte-for-byte with the checked ones
   inside a validated window (the micro-TLB fast path relies on this) *)
let test_phys_mem_unsafe_parity () =
  let m = Sb_mem.Phys_mem.create ~size:4096 in
  Sb_mem.Phys_mem.unsafe_write32 m 0 0xDEADBEEF;
  Sb_mem.Phys_mem.unsafe_write16 m 4 0xCAFE;
  Sb_mem.Phys_mem.unsafe_write8 m 6 0x42;
  Alcotest.(check int) "checked read32 sees unsafe write" 0xDEADBEEF
    (Sb_mem.Phys_mem.read32 m 0);
  Alcotest.(check int) "checked read16 sees unsafe write" 0xCAFE
    (Sb_mem.Phys_mem.read16 m 4);
  Alcotest.(check int) "unsafe read8" 0x42 (Sb_mem.Phys_mem.unsafe_read8 m 6);
  Alcotest.(check int) "unsafe read32" 0xDEADBEEF
    (Sb_mem.Phys_mem.unsafe_read32 m 0);
  Alcotest.(check int) "unsafe read16" 0xCAFE
    (Sb_mem.Phys_mem.unsafe_read16 m 4)

let test_phys_mem_load () =
  let m = Sb_mem.Phys_mem.create ~size:64 in
  Sb_mem.Phys_mem.load m ~addr:8 (Bytes.of_string "abcd");
  Alcotest.(check string) "blit out" "abcd"
    (Bytes.to_string (Sb_mem.Phys_mem.blit_out m ~addr:8 ~len:4))

(* [is_zero] steps 8 bytes at a time after one bounds check: every start
   alignment and every tail length must see a single non-zero byte at the
   first and at the last position of the window, and ignore non-zero
   bytes just outside it *)
let test_phys_mem_is_zero () =
  List.iter
    (fun size ->
      let m = Sb_mem.Phys_mem.create ~size in
      let is_zero ~addr ~len = Sb_mem.Phys_mem.is_zero m ~addr ~len in
      Alcotest.(check bool) "fresh memory" true (is_zero ~addr:0 ~len:size);
      for addr = 0 to 9 do
        for len = 1 to 20 do
          let label what = Printf.sprintf "size=%d @%d len=%d %s" size addr len what in
          List.iter
            (fun (pos, what) ->
              Sb_mem.Phys_mem.write8 m pos 0x80;
              Alcotest.(check bool) (label what) false (is_zero ~addr ~len);
              Sb_mem.Phys_mem.write8 m pos 0)
            [ (addr, "first byte set"); (addr + len - 1, "last byte set") ];
          if addr > 0 then Sb_mem.Phys_mem.write8 m (addr - 1) 0xFF;
          Sb_mem.Phys_mem.write8 m (addr + len) 0xFF;
          Alcotest.(check bool) (label "neighbours set") true (is_zero ~addr ~len);
          Sb_mem.Phys_mem.clear m
        done
      done;
      Sb_mem.Phys_mem.write8 m 3 1;
      Alcotest.(check bool) "zero length" true (is_zero ~addr:3 ~len:0);
      Alcotest.(check bool) "zero length at end" true (is_zero ~addr:size ~len:0);
      Alcotest.check_raises "past the end" (Sb_mem.Phys_mem.Out_of_range (size - 4))
        (fun () -> ignore (is_zero ~addr:(size - 4) ~len:8));
      Alcotest.check_raises "negative" (Sb_mem.Phys_mem.Out_of_range (-1))
        (fun () -> ignore (is_zero ~addr:(-1) ~len:4));
      Alcotest.check_raises "empty beyond the end"
        (Sb_mem.Phys_mem.Out_of_range (size + 1)) (fun () ->
          ignore (is_zero ~addr:(size + 1) ~len:0)))
    [ 64; 80 ]

(* [clear] zeroes only pages marked by a write, so every write path must
   mark every page it stores into.  Each writer stores one value with no
   zero byte, at page edges (16- and 32-bit writes straddling two pages
   included), then seeded values at seeded addresses; after each round
   [clear] must leave every byte zero.  The check reads the whole buffer
   with [blit_out], not [is_zero], which trusts the same map.  Single
   writes on an otherwise clean memory make a lost mark show: a page the
   writer stored into but did not mark keeps its bytes. *)
let test_phys_mem_clear_marks () =
  let page = 4096 in
  let size = 8 * page in
  let m = Sb_mem.Phys_mem.create ~size in
  let check_clear label =
    Sb_mem.Phys_mem.clear m;
    Bytes.iteri
      (fun i c ->
        if c <> '\000' then
          Alcotest.failf "%s: byte 0x%x is 0x%02x after clear" label i (Char.code c))
      (Sb_mem.Phys_mem.blit_out m ~addr:0 ~len:size)
  in
  let writers =
    [
      ("write8", 1, Sb_mem.Phys_mem.write8);
      ("write16", 2, Sb_mem.Phys_mem.write16);
      ("write32", 4, Sb_mem.Phys_mem.write32);
      ("unsafe_write8", 1, Sb_mem.Phys_mem.unsafe_write8);
      ("unsafe_write16", 2, Sb_mem.Phys_mem.unsafe_write16);
      ("unsafe_write32", 4, Sb_mem.Phys_mem.unsafe_write32);
    ]
  in
  let rng = Sb_util.Xorshift.create ~seed:16 in
  List.iter
    (fun (name, width, write) ->
      (* every byte non-zero, whichever page it lands on *)
      let value = 0xA5C3_7E19 land ((1 lsl (8 * width)) - 1) in
      let edges =
        [ 0; size - width; page; (3 * page) - width ]
        @ List.init (width - 1) (fun k -> (5 * page) - 1 - k)
      in
      List.iter
        (fun addr ->
          write m addr value;
          check_clear (Printf.sprintf "%s at 0x%x" name addr))
        edges;
      for round = 1 to 4 do
        for _ = 1 to 32 do
          let addr = Sb_util.Xorshift.int rng (size - width + 1) in
          write m addr (1 + Sb_util.Xorshift.int rng ((1 lsl (8 * width)) - 1))
        done;
        check_clear (Printf.sprintf "%s seeded round %d" name round)
      done)
    writers;
  (* a load over five pages, starting and ending mid-page *)
  let image = Bytes.init ((3 * page) + 200) (fun i -> Char.chr (1 + (i mod 255))) in
  Sb_mem.Phys_mem.load m ~addr:(page - 100) image;
  check_clear "multi-page load";
  Sb_mem.Phys_mem.load m ~addr:(size - 1) (Bytes.make 1 '\255');
  check_clear "one-byte load at the end";
  Sb_mem.Phys_mem.load m ~addr:page Bytes.empty;
  check_clear "empty load"

(* Guest RAM lives outside the OCaml heap and costs host memory only for
   the pages a guest touches: a 32 MiB memory grows the major heap by its
   dirty map alone, and the resident set by the three pages written. *)
let ram_size = 32 * 1024 * 1024

let test_phys_mem_off_heap () =
  let heap_words () = (Gc.quick_stat ()).Gc.heap_words in
  let before = heap_words () in
  let m = Sb_mem.Phys_mem.create ~size:ram_size in
  let grown = heap_words () - before in
  if grown >= 64 * 1024 then
    Alcotest.failf "a 32 MiB memory grew the major heap by %d words" grown;
  Alcotest.(check int) "size" ram_size (Sb_mem.Phys_mem.size (Sys.opaque_identity m))

let test_phys_mem_resident_on_touch () =
  if not (Sys.file_exists "/proc/self/status") then
    print_endline "skipped: no /proc/self/status on this host"
  else begin
    let before = Proc_status.vm_rss_kib () in
    let m = Sb_mem.Phys_mem.create ~size:ram_size in
    List.iter
      (fun addr -> Sb_mem.Phys_mem.write32 m addr 0xDEADBEEF)
      [ 0; ram_size / 2; ram_size - 4 ];
    let grown = Proc_status.vm_rss_kib () - before in
    if grown >= 4 * 1024 then
      Alcotest.failf "a 32 MiB memory with three pages written grew VmRSS by %d KiB"
        grown;
    Alcotest.(check int) "written word" 0xDEADBEEF
      (Sb_mem.Phys_mem.read32 m (ram_size / 2))
  end

let test_bus_ram_dispatch () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  Sb_mem.Bus.write32 bus 0x100 0xCAFE;
  Alcotest.(check int) "ram rw" 0xCAFE (Sb_mem.Bus.read32 bus 0x100);
  Alcotest.(check bool) "is_ram" true (Sb_mem.Bus.is_ram bus 0x100);
  Alcotest.(check bool) "not ram" false
    (Sb_mem.Bus.is_ram bus Sb_sim.Machine.Map.uart_base)

let test_bus_fault () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  Alcotest.check_raises "hole" (Sb_mem.Bus.Fault 0x2000_0000) (fun () ->
      ignore (Sb_mem.Bus.read32 bus 0x2000_0000))

let test_bus_overlap_rejected () =
  let ram = Sb_mem.Phys_mem.create ~size:4096 in
  let dev = Sb_mem.Device.rom ~name:"d" [] in
  let raised =
    try
      ignore (Sb_mem.Bus.create ~ram [ (0, 0x1000, dev) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "overlaps ram rejected" true raised;
  let raised =
    try
      ignore
        (Sb_mem.Bus.create ~ram
           [ (0x10000, 0x1000, dev); (0x10800, 0x1000, dev) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "overlapping windows rejected" true raised

let test_uart () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.uart_base in
  Sb_mem.Bus.write32 bus base (Char.code 'S');
  Sb_mem.Bus.write32 bus base (Char.code 'B');
  Alcotest.(check string) "tx" "SB" (Sb_mem.Uart.contents machine.Sb_sim.Machine.uart);
  Alcotest.(check int) "status ready" 1 (Sb_mem.Bus.read32 bus (base + 4));
  Alcotest.(check int) "txcount" 2 (Sb_mem.Bus.read32 bus (base + 8))

let test_intc_softint () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.intc_base in
  let intc = machine.Sb_sim.Machine.intc in
  Alcotest.(check bool) "idle" false (Sb_mem.Intc.asserted intc);
  (* raise software interrupt while masked: pending but not asserted *)
  Sb_mem.Bus.write32 bus (base + 0x8) 0x1;
  Alcotest.(check bool) "masked" false (Sb_mem.Intc.asserted intc);
  Sb_mem.Bus.write32 bus (base + 0x4) 0x1;
  Alcotest.(check bool) "asserted" true (Sb_mem.Intc.asserted intc);
  Alcotest.(check int) "pending reg" 1 (Sb_mem.Bus.read32 bus base);
  (* ack clears *)
  Sb_mem.Bus.write32 bus (base + 0xC) 0x1;
  Alcotest.(check bool) "acked" false (Sb_mem.Intc.asserted intc);
  Alcotest.(check int) "delivered count" 1 (Sb_mem.Intc.irq_delivered intc)

let test_timer_fires () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.timer_base in
  let intc = machine.Sb_sim.Machine.intc in
  Sb_mem.Bus.write32 bus (base + 0x4) 100;
  (* compare *)
  Sb_mem.Bus.write32 bus (base + 0x8) 1;
  (* irq enable *)
  Sb_mem.Bus.write32 bus (base + 0x4) 100;
  (* re-arm after enabling *)
  Sb_mem.Timer.advance machine.Sb_sim.Machine.timer 50;
  Alcotest.(check bool) "not yet" false (Sb_mem.Intc.pending intc land 2 <> 0);
  Sb_mem.Timer.advance machine.Sb_sim.Machine.timer 50;
  Alcotest.(check bool) "fired" true (Sb_mem.Intc.pending intc land 2 <> 0);
  (* ack at the interrupt controller, then confirm the timer is one-shot *)
  Sb_mem.Bus.write32 bus (Sb_sim.Machine.Map.intc_base + 0xC) 2;
  Sb_mem.Timer.advance machine.Sb_sim.Machine.timer 1000;
  Alcotest.(check bool) "one-shot" true (Sb_mem.Intc.pending intc land 2 = 0)

let test_devid () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.devid_base in
  Alcotest.(check int) "id" Sb_mem.Devid.id_value (Sb_mem.Bus.read32 bus base);
  Sb_mem.Bus.write32 bus (base + 4) 0x1234;
  Alcotest.(check int) "scratch" 0x1234 (Sb_mem.Bus.read32 bus (base + 4));
  Sb_mem.Bus.write32 bus (base + 8) 1;
  Alcotest.(check int) "led writes" 1 (Sb_mem.Devid.led_writes machine.Sb_sim.Machine.devid);
  Alcotest.(check bool) "access count grows" true
    (Sb_mem.Devid.access_count machine.Sb_sim.Machine.devid >= 4)

let test_benchdev_phases () =
  let t = ref 0. in
  let machine = Sb_sim.Machine.create ~ram_size:4096 ~now:(fun () -> !t) () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.bench_base in
  let bd = machine.Sb_sim.Machine.benchdev in
  Sb_mem.Benchdev.set_iters bd 500;
  Alcotest.(check int) "iters readable" 500 (Sb_mem.Bus.read32 bus (base + 0xC));
  t := 1.0;
  Sb_mem.Bus.write32 bus base 1;
  t := 3.5;
  Sb_mem.Bus.write32 bus base 2;
  (match Sb_mem.Benchdev.kernel_seconds bd with
  | Some s -> Alcotest.(check (float 1e-9)) "kernel time" 2.5 s
  | None -> Alcotest.fail "no kernel time");
  Sb_mem.Bus.write32 bus (base + 0x8) 7;
  Sb_mem.Bus.write32 bus (base + 0x8) 3;
  Alcotest.(check int) "opcount" 10 (Sb_mem.Benchdev.op_count bd);
  Sb_mem.Bus.write32 bus (base + 0x4) 0;
  Alcotest.(check bool) "exited" true (Sb_mem.Benchdev.exited bd)

let test_bus_subword_device () =
  let machine = make_machine () in
  let bus = machine.Sb_sim.Machine.bus in
  let base = Sb_sim.Machine.Map.devid_base in
  (* byte write into SCRATCH merges with the register *)
  Sb_mem.Bus.write32 bus (base + 4) 0xAABBCCDD;
  Sb_mem.Bus.write8 bus (base + 4) 0x11;
  Alcotest.(check int) "rmw byte" 0xAABBCC11 (Sb_mem.Bus.read32 bus (base + 4));
  Alcotest.(check int) "byte read" 0xBB (Sb_mem.Bus.read8 bus (base + 6))

let () =
  Alcotest.run "sb_mem"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "rw" `Quick test_phys_mem_rw;
          Alcotest.test_case "bounds" `Quick test_phys_mem_bounds;
          Alcotest.test_case "word recomposition" `Quick
            test_phys_mem_word_recomposition;
          Alcotest.test_case "halfword recomposition" `Quick
            test_phys_mem_halfword_recomposition;
          Alcotest.test_case "bounds boundary sweep" `Quick
            test_phys_mem_bounds_boundary;
          Alcotest.test_case "unsafe accessor parity" `Quick
            test_phys_mem_unsafe_parity;
          Alcotest.test_case "load/blit" `Quick test_phys_mem_load;
          Alcotest.test_case "is_zero windows" `Quick test_phys_mem_is_zero;
          Alcotest.test_case "clear after every write path" `Quick
            test_phys_mem_clear_marks;
          Alcotest.test_case "guest RAM off the heap" `Quick test_phys_mem_off_heap;
          Alcotest.test_case "guest RAM resident on touch" `Quick
            test_phys_mem_resident_on_touch;
        ] );
      ( "bus",
        [
          Alcotest.test_case "ram dispatch" `Quick test_bus_ram_dispatch;
          Alcotest.test_case "fault on hole" `Quick test_bus_fault;
          Alcotest.test_case "overlap rejected" `Quick test_bus_overlap_rejected;
          Alcotest.test_case "subword device access" `Quick test_bus_subword_device;
        ] );
      ( "devices",
        [
          Alcotest.test_case "uart" `Quick test_uart;
          Alcotest.test_case "intc softint" `Quick test_intc_softint;
          Alcotest.test_case "timer" `Quick test_timer_fires;
          Alcotest.test_case "devid" `Quick test_devid;
          Alcotest.test_case "benchdev" `Quick test_benchdev_phases;
        ] );
    ]
