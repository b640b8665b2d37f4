(* Unit and property tests for Sb_util. *)

let contains haystack needle =
  let n = String.length needle in
  let rec loop i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || loop (i + 1))
  in
  loop 0



let test_u32_basics () =
  Alcotest.(check int) "mask" 0xFFFF_FFFF Sb_util.U32.mask;
  Alcotest.(check int) "add wraps" 0 (Sb_util.U32.add 0xFFFF_FFFF 1);
  Alcotest.(check int) "sub wraps" 0xFFFF_FFFF (Sb_util.U32.sub 0 1);
  Alcotest.(check int) "to_signed -1" (-1) (Sb_util.U32.to_signed 0xFFFF_FFFF);
  Alcotest.(check int) "to_signed min" (-0x8000_0000) (Sb_util.U32.to_signed 0x8000_0000);
  Alcotest.(check int) "lognot" 0xFFFF_FF00 (Sb_util.U32.lognot 0xFF)

let test_u32_shifts () =
  Alcotest.(check int) "lsl" 0x10 (Sb_util.U32.shift_left 1 4);
  Alcotest.(check int) "lsl out" 0 (Sb_util.U32.shift_left 1 32);
  Alcotest.(check int) "lsr" 0x0FFF_FFFF (Sb_util.U32.shift_right_logical 0xFFFF_FFFF 4);
  Alcotest.(check int) "asr sign" 0xFFFF_FFFF (Sb_util.U32.shift_right_arith 0x8000_0000 31);
  Alcotest.(check int) "asr cap" 0xFFFF_FFFF (Sb_util.U32.shift_right_arith 0x8000_0000 63)

(* Carry, overflow and borrow of u32 add and sub, as the ALU computes
   them into a CPU's C and V flags (for sub, C is the inverted borrow). *)
let test_u32_flags () =
  let cpu = Sb_sim.Cpu.create () in
  let with_flags op a b =
    let r = Sb_sim.Alu_eval.eval_set_flags cpu op a b in
    (r, cpu.Sb_sim.Cpu.flag_c, cpu.Sb_sim.Cpu.flag_v)
  in
  let r, c, v = with_flags Sb_isa.Uop.Add 0xFFFF_FFFF 1 in
  Alcotest.(check int) "add carry result" 0 r;
  Alcotest.(check bool) "add carry" true c;
  Alcotest.(check bool) "add no ovf" false v;
  let r, c, v = with_flags Sb_isa.Uop.Add 0x7FFF_FFFF 1 in
  Alcotest.(check int) "add ovf result" 0x8000_0000 r;
  Alcotest.(check bool) "add no carry" false c;
  Alcotest.(check bool) "add ovf" true v;
  let _, c, _ = with_flags Sb_isa.Uop.Sub 0 1 in
  Alcotest.(check bool) "sub borrow" false c;
  let r, c, v = with_flags Sb_isa.Uop.Sub 0x8000_0000 1 in
  Alcotest.(check int) "sub ovf result" 0x7FFF_FFFF r;
  Alcotest.(check bool) "sub no borrow" true c;
  Alcotest.(check bool) "sub ovf" true v

let test_sign_extend () =
  Alcotest.(check int) "positive" 5 (Sb_util.U32.sign_extend ~bits:14 5);
  Alcotest.(check int) "negative" 0xFFFF_FFFF (Sb_util.U32.sign_extend ~bits:14 0x3FFF);
  Alcotest.(check int) "boundary" 0xFFFF_E000 (Sb_util.U32.sign_extend ~bits:14 0x2000)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Sb_util.Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geomean" 2. (Sb_util.Stats.geomean [ 1.; 4. ]);
  Alcotest.(check (float 1e-9))
    "weighted geomean equal weights = geomean" 2.
    (Sb_util.Stats.weighted_geomean [ (1., 1.); (4., 1.) ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Sb_util.Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Sb_util.Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "speedup" 2. (Sb_util.Stats.speedup ~baseline:4. 2.);
  Alcotest.(check (float 0.)) "min of repeats" 1.5
    (Sb_util.Stats.min_of_repeats [ 2.5; 1.5; 3.0 ]);
  Alcotest.(check (float 0.)) "min of singleton" 4.0 (Sb_util.Stats.min_of_repeats [ 4.0 ]);
  Alcotest.(check bool) "min of empty is nan" true
    (Float.is_nan (Sb_util.Stats.min_of_repeats []))

let test_json () =
  let open Sb_util.Json in
  Alcotest.(check string) "scalars" {|[null,true,42,"a\"b\n"]|}
    (to_string (List [ Null; Bool true; Int 42; String "a\"b\n" ]));
  Alcotest.(check string) "object" {|{"x":1.5,"y":[]}|}
    (to_string (Obj [ ("x", Float 1.5); ("y", List []) ]));
  Alcotest.(check string) "non-finite floats are null" {|[null,null]|}
    (to_string (List [ Float nan; Float infinity ]));
  Alcotest.(check string) "control chars escaped" "\"\\u0007\""
    (to_string (String "\007"))

(* Untrusted documents nest at most 512 deep: one level more is an error
   at its opening bracket, so a long run of brackets costs time linear in
   its length instead of a parse to its end. *)
let test_json_depth () =
  let open Sb_util.Json in
  let arrays n = String.make n '[' ^ String.make n ']' in
  let objects n =
    String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "0" ^ String.make n '}'
  in
  let rejected what doc ~column =
    match of_string doc with
    | Ok _ -> Alcotest.failf "%s: parsed" what
    | Error msg ->
      Alcotest.(check string) what
        (Printf.sprintf "line 1, column %d: nesting deeper than 512" column)
        msg
  in
  List.iter
    (fun (what, doc) ->
      match of_string doc with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" what msg)
    [ ("512 arrays", arrays 512); ("512 objects", objects 512) ];
  rejected "513 arrays" (arrays 513) ~column:513;
  rejected "513 objects" (objects 513) ~column:((512 * 5) + 1);
  rejected "a million open brackets" (String.make 1_000_000 '[') ~column:513

(* Json.of_file: a file that does not parse, a missing path and a
   directory are errors that start with the path, never exceptions *)
let test_json_of_file () =
  let dir = Filename.temp_dir "sb_util_json" "" in
  let write name s =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc s);
    path
  in
  let good = write "good.json" {|{"a":[1,2]}|} in
  (match Sb_util.Json.of_file good with
  | Ok j ->
    Alcotest.(check bool) "parsed" true
      (Sb_util.Json.member "a" j
      = Some Sb_util.Json.(List [ Int 1; Int 2 ]))
  | Error msg -> Alcotest.fail msg);
  let bad = write "bad.json" {|{"a": }|} in
  List.iter
    (fun (what, path, reason) ->
      match Sb_util.Json.of_file path with
      | Ok _ -> Alcotest.failf "%s: parsed" what
      | Error msg ->
        Alcotest.(check bool) (what ^ ": starts with the path") true
          (String.starts_with ~prefix:(path ^ ": ") msg);
        Alcotest.(check bool) (what ^ ": says why") true
          (contains msg reason))
    [
      ("unparsable", bad, "column");
      ("missing", Filename.concat dir "none.json", "No such file");
      ("directory", dir, "directory");
    ];
  Sys.remove good;
  Sys.remove bad;
  Sys.rmdir dir

let test_xorshift_deterministic () =
  let a = Sb_util.Xorshift.create ~seed:42 in
  let b = Sb_util.Xorshift.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Sb_util.Xorshift.next a) (Sb_util.Xorshift.next b)
  done

let test_xorshift_zero_seed () =
  let r = Sb_util.Xorshift.create ~seed:0 in
  Alcotest.(check bool) "nonzero output" true (Sb_util.Xorshift.next r <> 0)

let test_tablefmt () =
  let out =
    Sb_util.Tablefmt.render ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check bool) "has rule" true (String.contains out '-')

let test_hexdump () =
  let out = Sb_util.Hexdump.bytes ~base:0x1000 (Bytes.of_string "Hello, world!!!!") in
  Alcotest.(check bool) "address" true (String.length out >= 8 && String.sub out 0 8 = "00001000");
  let contains haystack needle =
    let n = String.length needle in
    let rec loop i =
      if i + n > String.length haystack then false
      else String.sub haystack i n = needle || loop (i + 1)
    in
    loop 0
  in
  Alcotest.(check bool) "ascii gutter" true (contains out "|Hello")

let prop_u32_add_assoc =
  QCheck.Test.make ~name:"u32 add associative" ~count:500
    QCheck.(triple (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF) (int_bound 0xFFFFFFF))
    (fun (a, b, c) ->
      Sb_util.U32.add (Sb_util.U32.add a b) c = Sb_util.U32.add a (Sb_util.U32.add b c))

let prop_u32_roundtrip_signed =
  QCheck.Test.make ~name:"u32 signed roundtrip" ~count:500
    QCheck.(int_range (-0x8000_0000) 0x7FFF_FFFF)
    (fun x -> Sb_util.U32.to_signed (Sb_util.U32.of_int x) = x)

let prop_geomean_bounds =
  QCheck.Test.make ~name:"geomean between min and max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (float_range 0.1 100.))
    (fun xs ->
      let g = Sb_util.Stats.geomean xs in
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sb_util"
    [
      ( "u32",
        [
          Alcotest.test_case "basics" `Quick test_u32_basics;
          Alcotest.test_case "shifts" `Quick test_u32_shifts;
          Alcotest.test_case "flags" `Quick test_u32_flags;
          Alcotest.test_case "sign_extend" `Quick test_sign_extend;
        ]
        @ qcheck [ prop_u32_add_assoc; prop_u32_roundtrip_signed ] );
      ( "stats",
        [ Alcotest.test_case "aggregates" `Quick test_stats ]
        @ qcheck [ prop_geomean_bounds ] );
      ( "json",
        [
          Alcotest.test_case "emitter" `Quick test_json;
          Alcotest.test_case "nesting depth bounded" `Quick test_json_depth;
          Alcotest.test_case "file reader" `Quick test_json_of_file;
        ] );
      ( "xorshift",
        [
          Alcotest.test_case "deterministic" `Quick test_xorshift_deterministic;
          Alcotest.test_case "zero seed" `Quick test_xorshift_zero_seed;
        ] );
      ( "render",
        [
          Alcotest.test_case "tablefmt" `Quick test_tablefmt;
          Alcotest.test_case "hexdump" `Quick test_hexdump;
        ] );
    ]
