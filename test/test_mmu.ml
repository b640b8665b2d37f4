(* Tests for page tables, the walker and the software TLB. *)

module Access = Sb_mmu.Access
module Pte = Sb_mmu.Pte
module Walker = Sb_mmu.Walker
module Tlb = Sb_mmu.Page_cache
module Mtlb = Sb_mmu.Mtlb

(* interp's unified and detailed's split TLBs: level 1 alone, flushed
   eagerly *)
let tlb_create entries = Tlb.create ~l1_entries:entries ~l2_entries:0 ~lazy_flush:false

(* A tiny physical memory to hold page tables. *)
let make_phys () = Sb_mem.Phys_mem.create ~size:(1 lsl 20)

let read32_of phys pa = Sb_mem.Phys_mem.read32 phys pa

let ttbr = 0x4000
let l2_base = 0x8000

let install_l1_section phys ~va ~pa ~ap ~xn =
  Sb_mem.Phys_mem.write32 phys
    (ttbr + (Pte.l1_index va * 4))
    (Pte.encode_section ~pa_base:pa ~ap ~xn)

let install_page phys ~va ~pa ~ap ~xn =
  Sb_mem.Phys_mem.write32 phys
    (ttbr + (Pte.l1_index va * 4))
    (Pte.encode_table ~l2_base);
  Sb_mem.Phys_mem.write32 phys
    (l2_base + (Pte.l2_index va * 4))
    (Pte.encode_page ~pa_base:pa ~ap ~xn)

let test_pte_roundtrip () =
  let e = Pte.encode_section ~pa_base:0x0040_0000 ~ap:Access.Ap.user_full ~xn:true in
  (match Pte.decode_l1 e with
  | Pte.L1_section { pa_base; ap; xn } ->
    Alcotest.(check int) "base" 0x0040_0000 pa_base;
    Alcotest.(check int) "ap" Access.Ap.user_full ap;
    Alcotest.(check bool) "xn" true xn
  | _ -> Alcotest.fail "expected section");
  let e = Pte.encode_page ~pa_base:0x1_2000 ~ap:Access.Ap.kernel_only ~xn:false in
  (match Pte.decode_l2 e with
  | Pte.L2_page { pa_base; ap; xn } ->
    Alcotest.(check int) "page base" 0x1_2000 pa_base;
    Alcotest.(check int) "page ap" Access.Ap.kernel_only ap;
    Alcotest.(check bool) "page xn" false xn
  | _ -> Alcotest.fail "expected page");
  Alcotest.(check bool) "invalid decodes invalid" true
    (Pte.decode_l1 Pte.invalid = Pte.L1_invalid)

let test_pte_alignment_checks () =
  let raised f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "section misaligned" true
    (raised (fun () -> ignore (Pte.encode_section ~pa_base:0x1000 ~ap:0 ~xn:false)));
  Alcotest.(check bool) "page misaligned" true
    (raised (fun () -> ignore (Pte.encode_page ~pa_base:0x123 ~ap:0 ~xn:false)))

let test_walk_section () =
  let phys = make_phys () in
  install_l1_section phys ~va:0x0 ~pa:0x0 ~ap:Access.Ap.kernel_only ~xn:false;
  match Walker.walk ~read32:(read32_of phys) ~ttbr ~va:0x1234 with
  | Ok m ->
    Alcotest.(check int) "va page" 0x1000 m.Walker.va_page;
    Alcotest.(check int) "pa page" 0x1000 m.Walker.pa_page;
    Alcotest.(check bool) "from section" true m.Walker.from_section;
    Alcotest.(check int) "one level" 1 m.Walker.levels
  | Error _ -> Alcotest.fail "walk failed"

let test_walk_page () =
  let phys = make_phys () in
  install_page phys ~va:0x0040_3000 ~pa:0x0008_0000 ~ap:Access.Ap.user_full ~xn:true;
  match Walker.walk ~read32:(read32_of phys) ~ttbr ~va:0x0040_3ABC with
  | Ok m ->
    Alcotest.(check int) "pa page" 0x0008_0000 m.Walker.pa_page;
    Alcotest.(check int) "two levels" 2 m.Walker.levels;
    Alcotest.(check bool) "xn" true m.Walker.xn
  | Error _ -> Alcotest.fail "walk failed"

let test_walk_unmapped () =
  let phys = make_phys () in
  (match Walker.walk ~read32:(read32_of phys) ~ttbr ~va:0x5000_0000 with
  | Error Access.Translation -> ()
  | _ -> Alcotest.fail "expected translation fault");
  (* table entry present but L2 invalid *)
  Sb_mem.Phys_mem.write32 phys
    (ttbr + (Pte.l1_index 0x0040_0000 * 4))
    (Pte.encode_table ~l2_base);
  match Walker.walk ~read32:(read32_of phys) ~ttbr ~va:0x0040_0000 with
  | Error Access.Translation -> ()
  | _ -> Alcotest.fail "expected L2 translation fault"

let test_translate_permissions () =
  let phys = make_phys () in
  install_page phys ~va:0x1000 ~pa:0x2000 ~ap:Access.Ap.user_read ~xn:true;
  let tr kind priv =
    Walker.translate ~read32:(read32_of phys) ~ttbr ~va:0x1004 ~kind ~priv
  in
  Alcotest.(check bool) "kernel read ok" true (tr Access.Read Access.Kernel = Ok 0x2004);
  Alcotest.(check bool) "user read ok" true (tr Access.Read Access.User = Ok 0x2004);
  Alcotest.(check bool) "user write denied" true
    (tr Access.Write Access.User = Error Access.Permission);
  Alcotest.(check bool) "kernel write ok" true (tr Access.Write Access.Kernel = Ok 0x2004);
  Alcotest.(check bool) "execute denied by xn" true
    (tr Access.Execute Access.Kernel = Error Access.Permission)

let test_ap_matrix () =
  let open Access in
  (* (ap, kind, priv, expected) *)
  let cases =
    [
      (Ap.kernel_only, Read, Kernel, true);
      (Ap.kernel_only, Read, User, false);
      (Ap.kernel_only, Write, Kernel, true);
      (Ap.kernel_only, Write, User, false);
      (Ap.user_read, Read, User, true);
      (Ap.user_read, Write, User, false);
      (Ap.user_full, Write, User, true);
      (Ap.kernel_read, Write, Kernel, false);
      (Ap.kernel_read, Read, Kernel, true);
      (Ap.kernel_read, Read, User, false);
    ]
  in
  List.iteri
    (fun i (ap, kind, priv, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d" i)
        expected
        (Ap.permits ~ap ~xn:false kind priv))
    cases

let test_tlb_basics () =
  let tlb = tlb_create 16 in
  Alcotest.(check bool) "miss on empty" true (Tlb.lookup_l1 tlb ~vpn:5 ~asid:0 = None);
  Tlb.insert tlb { Tlb.vpn = 5; ppn = 9; ap = 0; xn = false; asid = 0 };
  match Tlb.lookup_l1 tlb ~vpn:5 ~asid:0 with
  | Some e -> Alcotest.(check int) "ppn" 9 e.Tlb.ppn
  | None -> Alcotest.fail "expected hit"

let test_tlb_conflict_eviction () =
  let tlb = tlb_create 16 in
  Tlb.insert tlb { Tlb.vpn = 3; ppn = 1; ap = 0; xn = false; asid = 0 };
  (* vpn 19 maps to the same direct-mapped slot (19 mod 16 = 3) *)
  Tlb.insert tlb { Tlb.vpn = 19; ppn = 2; ap = 0; xn = false; asid = 0 };
  Alcotest.(check bool) "old evicted" true (Tlb.lookup_l1 tlb ~vpn:3 ~asid:0 = None);
  Alcotest.(check bool) "new present" true (Tlb.lookup_l1 tlb ~vpn:19 ~asid:0 <> None)

let test_tlb_invalidate_and_flush () =
  let tlb = tlb_create 16 in
  Tlb.insert tlb { Tlb.vpn = 1; ppn = 1; ap = 0; xn = false; asid = 0 };
  Tlb.insert tlb { Tlb.vpn = 2; ppn = 2; ap = 0; xn = false; asid = 0 };
  Tlb.invalidate_page tlb ~vpn:1 ~asid:0;
  Alcotest.(check bool) "invalidated" true (Tlb.lookup_l1 tlb ~vpn:1 ~asid:0 = None);
  Alcotest.(check bool) "other kept" true (Tlb.lookup_l1 tlb ~vpn:2 ~asid:0 <> None);
  (* invalidating a vpn that aliases but does not match must not clobber *)
  Tlb.invalidate_page tlb ~vpn:18 ~asid:0;
  Alcotest.(check bool) "alias kept" true (Tlb.lookup_l1 tlb ~vpn:2 ~asid:0 <> None);
  Tlb.flush tlb;
  Alcotest.(check bool) "flushed" true (Tlb.lookup_l1 tlb ~vpn:2 ~asid:0 = None)

let test_tlb_asid_tagging () =
  let tlb = tlb_create 16 in
  Tlb.insert tlb { Tlb.vpn = 4; ppn = 10; ap = 0; xn = false; asid = 1 };
  Tlb.insert tlb { Tlb.vpn = 4; ppn = 20; ap = 0; xn = false; asid = 2 };
  (match Tlb.lookup_l1 tlb ~vpn:4 ~asid:1 with
  | Some e -> Alcotest.(check int) "asid 1 ppn" 10 e.Tlb.ppn
  | None -> Alcotest.fail "asid 1 lost");
  (match Tlb.lookup_l1 tlb ~vpn:4 ~asid:2 with
  | Some e -> Alcotest.(check int) "asid 2 ppn" 20 e.Tlb.ppn
  | None -> Alcotest.fail "asid 2 lost");
  Alcotest.(check bool) "asid 3 misses" true (Tlb.lookup_l1 tlb ~vpn:4 ~asid:3 = None);
  Tlb.invalidate_page tlb ~vpn:4 ~asid:1;
  Alcotest.(check bool) "qualified invalidate" true
    (Tlb.lookup_l1 tlb ~vpn:4 ~asid:1 = None && Tlb.lookup_l1 tlb ~vpn:4 ~asid:2 <> None)

let test_tlb_geometry_validation () =
  let raised n = try ignore (tlb_create n); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero" true (raised 0);
  Alcotest.(check bool) "non power of two" true (raised 24);
  Alcotest.(check bool) "ok" false (raised 64)

(* --- host-side micro-TLB (the DBT flat-memory fast path) --- *)

let test_mtlb_fill_probe () =
  let m = Mtlb.create ~entries:16 in
  Alcotest.(check int) "miss on empty" (-1) (Mtlb.probe m ~vpn:5 ~asid:1 ~priv:1);
  Mtlb.fill m ~vpn:5 ~asid:1 ~priv:1 ~base:0x5000;
  Alcotest.(check int) "hit" 0x5000 (Mtlb.probe m ~vpn:5 ~asid:1 ~priv:1);
  (* every component of the key must match *)
  Alcotest.(check int) "wrong asid" (-1) (Mtlb.probe m ~vpn:5 ~asid:2 ~priv:1);
  Alcotest.(check int) "wrong priv" (-1) (Mtlb.probe m ~vpn:5 ~asid:1 ~priv:0);
  Alcotest.(check int) "wrong vpn" (-1) (Mtlb.probe m ~vpn:6 ~asid:1 ~priv:1)

let test_mtlb_conflict_eviction () =
  let m = Mtlb.create ~entries:16 in
  (* 16 entries: 16 consecutive pages all stay resident *)
  for vpn = 32 to 47 do
    Mtlb.fill m ~vpn ~asid:0 ~priv:0 ~base:(vpn * 0x1000)
  done;
  for vpn = 32 to 47 do
    Alcotest.(check int)
      (Printf.sprintf "vpn %d resident" vpn)
      (vpn * 0x1000)
      (Mtlb.probe m ~vpn ~asid:0 ~priv:0)
  done;
  Mtlb.fill m ~vpn:3 ~asid:0 ~priv:0 ~base:0x1000;
  (* vpn 19 lands in the same direct-mapped slot (19 mod 16 = 3) *)
  Mtlb.fill m ~vpn:19 ~asid:0 ~priv:0 ~base:0x2000;
  Alcotest.(check int) "old evicted" (-1) (Mtlb.probe m ~vpn:3 ~asid:0 ~priv:0);
  Alcotest.(check int) "new present" 0x2000 (Mtlb.probe m ~vpn:19 ~asid:0 ~priv:0)

let test_mtlb_invalidate_page () =
  let m = Mtlb.create ~entries:16 in
  Mtlb.fill m ~vpn:1 ~asid:7 ~priv:1 ~base:0x1000;
  Mtlb.fill m ~vpn:2 ~asid:7 ~priv:0 ~base:0x2000;
  (* asid/priv-blind: drops the entry no matter how it was tagged *)
  Mtlb.invalidate_page m ~vpn:1;
  Alcotest.(check int) "invalidated" (-1) (Mtlb.probe m ~vpn:1 ~asid:7 ~priv:1);
  Alcotest.(check int) "other kept" 0x2000 (Mtlb.probe m ~vpn:2 ~asid:7 ~priv:0);
  (* an aliasing vpn that does not match must not clobber the slot *)
  Mtlb.invalidate_page m ~vpn:18;
  Alcotest.(check int) "alias kept" 0x2000 (Mtlb.probe m ~vpn:2 ~asid:7 ~priv:0)

let test_mtlb_flush_generation () =
  let m = Mtlb.create ~entries:16 in
  for vpn = 0 to 15 do
    Mtlb.fill m ~vpn ~asid:0 ~priv:1 ~base:(vpn * 0x1000)
  done;
  Mtlb.flush m;
  for vpn = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "vpn %d flushed" vpn)
      (-1)
      (Mtlb.probe m ~vpn ~asid:0 ~priv:1)
  done;
  (* refills after a flush are visible again *)
  Mtlb.fill m ~vpn:4 ~asid:0 ~priv:1 ~base:0x4000;
  Alcotest.(check int) "refill after flush" 0x4000 (Mtlb.probe m ~vpn:4 ~asid:0 ~priv:1)

let test_mtlb_geometry_validation () =
  let raised n = try ignore (Mtlb.create ~entries:n); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero" true (raised 0);
  Alcotest.(check bool) "non power of two" true (raised 24);
  Alcotest.(check bool) "ok" false (raised 256)

(* Property: for random page tables, a TLB filled from walks always agrees
   with a fresh walk. *)
let prop_tlb_coherent_with_walk =
  QCheck.Test.make ~name:"tlb agrees with walker" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 255) (int_bound 200)))
    (fun mappings ->
      let phys = make_phys () in
      let tlb = tlb_create 64 in
      (* install each mapping va_page -> pa_page in a 1 MiB arena *)
      List.iter
        (fun (vp, pp) ->
          install_page phys ~va:(vp lsl 12) ~pa:(pp lsl 12)
            ~ap:Access.Ap.kernel_only ~xn:false)
        mappings;
      List.for_all
        (fun (vp, _) ->
          let va = (vp lsl 12) lor 0x10 in
          match Walker.walk ~read32:(read32_of phys) ~ttbr ~va with
          | Error _ -> true
          | Ok m ->
            Tlb.insert tlb
              { Tlb.vpn = vp; ppn = m.Walker.pa_page lsr 12; ap = m.Walker.ap;
                xn = m.Walker.xn; asid = 0 };
            (match Tlb.lookup_l1 tlb ~vpn:vp ~asid:0 with
            | Some e -> e.Tlb.ppn lsl 12 = m.Walker.pa_page
            | None -> false))
        mappings)

let () =
  Alcotest.run "sb_mmu"
    [
      ( "pte",
        [
          Alcotest.test_case "roundtrip" `Quick test_pte_roundtrip;
          Alcotest.test_case "alignment" `Quick test_pte_alignment_checks;
        ] );
      ( "walker",
        [
          Alcotest.test_case "section" `Quick test_walk_section;
          Alcotest.test_case "page" `Quick test_walk_page;
          Alcotest.test_case "unmapped" `Quick test_walk_unmapped;
          Alcotest.test_case "permissions" `Quick test_translate_permissions;
          Alcotest.test_case "ap matrix" `Quick test_ap_matrix;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basics" `Quick test_tlb_basics;
          Alcotest.test_case "conflict eviction" `Quick test_tlb_conflict_eviction;
          Alcotest.test_case "invalidate/flush" `Quick test_tlb_invalidate_and_flush;
          Alcotest.test_case "geometry" `Quick test_tlb_geometry_validation;
          Alcotest.test_case "asid tagging" `Quick test_tlb_asid_tagging;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_tlb_coherent_with_walk ] );
      ( "mtlb",
        [
          Alcotest.test_case "fill/probe" `Quick test_mtlb_fill_probe;
          Alcotest.test_case "conflict eviction" `Quick test_mtlb_conflict_eviction;
          Alcotest.test_case "invalidate page" `Quick test_mtlb_invalidate_page;
          Alcotest.test_case "flush/generation" `Quick test_mtlb_flush_generation;
          Alcotest.test_case "geometry" `Quick test_mtlb_geometry_validation;
        ] );
    ]
