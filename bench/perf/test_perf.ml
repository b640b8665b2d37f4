(* Unit checks for the benchmark's own arithmetic and seeded inputs.  No
   simulation runs here.  Attached to [dune runtest]. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let percentiles () =
  (* highest percentile with at least ten samples beyond it *)
  List.iter
    (fun (n, expect) ->
      check
        (Printf.sprintf "supported_percentile %d" n)
        (Perf_stats.supported_percentile n = expect))
    [
      (19, None);
      (20, Some 50.);
      (40, Some 75.);
      (100, Some 90.);
      (199, Some 90.);
      (200, Some 95.);
      (1000, Some 99.);
      (10000, Some 99.9);
    ];
  check "percentile interpolates"
    (close (Perf_stats.percentile [ 1.; 2.; 3.; 4. ] 50.) 2.5);
  check "percentile p95 of 0..100"
    (close (Perf_stats.percentile (List.init 101 float_of_int) 95.) 95.);
  (* the same quartiles as Python's statistics.quantiles(xs, n=4) *)
  let q xs (a, b, c) =
    let x, y, z = Perf_stats.quartiles xs in
    close x a && close y b && close z c
  in
  check "quartiles 1..10"
    (q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25));
  check "quartiles of 3" (q [ 3.; 1.; 2. ] (1., 2., 3.));
  check "quartiles of 2" (q [ 5.; 1. ] (0., 3., 6.));
  check "geomean" (close (Perf_stats.geomean [ 1.; 4.; 16. ]) 4.)

let verdicts () =
  let v better base change =
    Perf_stats.verdict ~better ~bound:0.1 ~base ~change
  in
  let scaled k = List.map (fun x -> x *. k) in
  let base = [ 100.; 101.; 99.; 100.; 100.5 ] in
  let open Perf_stats in
  check "verdict better" (v Lower base (scaled 0.9 base) = Better);
  check "verdict better, higher is better"
    (v Higher base (scaled 1.1 base) = Better);
  check "verdict worse within bound" (v Lower base (scaled 1.05 base) = Within);
  check "verdict worse" (v Lower base (scaled 1.2 base) = Worse);
  check "verdict worse, higher is better"
    (v Higher base (scaled 0.8 base) = Worse);
  let noisy = [ 60.; 140.; 100.; 70.; 130. ] in
  check "verdict unresolved"
    (v Lower noisy [ 95.; 150.; 60.; 100.; 120. ] = Unresolved);
  check "verdict better through noise"
    (v Lower noisy [ 50.; 51.; 52.; 50.; 49. ] = Better)

(* An execution's build, engine-phase and kernel parts always sum to the
   call's host time, and none is negative. *)
let split () =
  let sums total wall kernel =
    let b, p, k = Grid.split ~total ~wall ~kernel in
    close (b +. p +. k) total && b >= 0. && p >= 0. && k >= 0.
  in
  check "split parts" (Grid.split ~total:10. ~wall:7. ~kernel:4. = (3., 3., 4.));
  check "split sums" (sums 10. 7. 4.);
  check "split clamps an engine wall above the call" (sums 1. 2. 0.5);
  check "split clamps a kernel above the engine wall" (sums 1. 0.5 0.8);
  check "split clamps negatives" (sums 1. (-1.) (-1.));
  let t = Spans.create () in
  let p = Spans.add t "parent" ~start:0. ~stop:10. in
  ignore (Spans.add t ~parent:p ~derived:true "child" ~start:1. ~stop:4.);
  let json = Sb_util.Json.to_string (Spans.to_chrome_json t) in
  check "chrome json parses" (Result.is_ok (Sb_util.Json.of_string json))

(* Same seed, same cell order and job mix; another seed, another. *)
let seeded_inputs () =
  let order seed =
    Ctx.shuffled (Sb_util.Xorshift.create ~seed) (List.init 50 Fun.id)
  in
  check "shuffle repeats for a seed" (order 7 = order 7);
  check "shuffle differs across seeds" (order 7 <> order 8);
  let jobs seed =
    Serve_load.session_jobs ~smoke:false (Sb_util.Xorshift.create ~seed)
    |> List.map (List.map (List.map Sb_serve.Protocol.spec_key))
  in
  check "job mix repeats for a seed" (jobs 3 = jobs 3);
  check "job mix differs across seeds" (jobs 3 <> jobs 4);
  let cells = List.concat (List.concat (jobs 3)) in
  check "a session requests 312 cells" (List.length cells = 312);
  check "147 of them distinct"
    (List.length (List.sort_uniq compare cells) = 147);
  check "two connections, 16 and 8 jobs"
    (List.map List.length (jobs 3) = [ 16; 8 ])

let () =
  percentiles ();
  verdicts ();
  split ();
  seeded_inputs ();
  if !failures > 0 then exit 1;
  print_endline "test_perf: ok"
