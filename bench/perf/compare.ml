(* [simbench_perf compare BASE.jsonl [NEW.jsonl ...]]: each file is a set
   of run records appended by [run --out].  Prints, per (workload,
   end-to-end metric), every set's median and quartiles and, against the
   first set, a verdict under the bound fixed in BENCHMARK.json.  Counters
   that should repeat exactly for a seed are checked across every run. *)

module J = Sb_util.Json

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let load_set path =
  List.map
    (fun line ->
      match Result.bind (J.of_string line) Metrics.of_json with
      | Ok r -> r
      | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    (read_lines path)

type bound = {
  name : string;
  unit : string;
  better : Perf_stats.better;
  bound : float;
}

let load_bounds path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j =
    match J.of_string text with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let field k m f = Option.bind (J.member k m) f in
  match field "end_to_end" j J.list_opt with
  | None -> failwith (path ^ ": no end_to_end list")
  | Some ms ->
    List.map
      (fun m ->
        match
          ( field "name" m J.string_opt,
            field "unit" m J.string_opt,
            Option.bind (field "better" m J.string_opt)
              Perf_stats.better_of_string,
            field "bound" m J.float_opt )
        with
        | Some name, Some unit, Some better, Some bound ->
          { name; unit; better; bound }
        | _ -> failwith (path ^ ": malformed end_to_end entry"))
      ms

let values runs name =
  List.filter_map (fun r -> List.assoc_opt name r.Metrics.values) runs

let summary xs =
  let q1, q2, q3 = Perf_stats.quartiles xs in
  Printf.sprintf "%10.4g [%.4g, %.4g] n=%d" q2 q1 q3 (List.length xs)

(* Traced over untraced wall time, paired by seed. *)
let overhead (runs : Metrics.result list) =
  List.filter_map
    (fun (t : Metrics.result) ->
      if not t.traced then None
      else
        List.find_opt
          (fun (u : Metrics.result) -> (not u.traced) && u.seed = t.seed)
          runs
        |> Option.map (fun (u : Metrics.result) ->
               List.assoc "trace.wall_s" t.values
               /. List.assoc "wall_s" u.values))
    runs

(* One (workload, metric) row; [true] when a later set is worse than the
   first by more than the bound. *)
let verdict_row b per_set =
  let base = List.hd per_set in
  let worse = ref false in
  Printf.printf "  %-16s %-5s" b.name b.unit;
  List.iteri
    (fun i xs ->
      if xs = [] then Printf.printf "  [%d] -" i
      else if i = 0 then
        Printf.printf "  [0] %s spread %.1f%%, bound %.0f%%" (summary xs)
          (100. *. Perf_stats.spread xs)
          (100. *. b.bound)
      else if base = [] then Printf.printf "  [%d] %s" i (summary xs)
      else begin
        let v =
          Perf_stats.verdict ~better:b.better ~bound:b.bound ~base ~change:xs
        in
        if v = Perf_stats.Worse then worse := true;
        Printf.printf "  [%d] %s %+.1f%% %s" i (summary xs)
          (100. *. ((Perf_stats.median xs /. Perf_stats.median base) -. 1.))
          (Perf_stats.verdict_to_string v)
      end)
    per_set;
  print_newline ();
  !worse

(* Counters must agree across every run of a (workload, seed). *)
let differing_counters all =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : Metrics.result) ->
      let k = (r.workload, r.seed) in
      Hashtbl.replace groups k
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    all;
  Hashtbl.fold
    (fun (w, seed) (rs : Metrics.result list) n ->
      let first = List.hd rs in
      List.fold_left
        (fun n (name, v) ->
          let all_v =
            List.filter_map
              (fun (r : Metrics.result) -> List.assoc_opt name r.exact)
              rs
          in
          if List.for_all (( = ) v) all_v then n
          else begin
            Printf.printf "COUNTER DIFFERS %s seed %d %s: %s\n" w seed name
              (String.concat " " (List.map string_of_int all_v));
            n + 1
          end)
        n first.exact)
    groups 0

let run ~bench paths =
  let sets = List.map (fun p -> (p, load_set p)) paths in
  let bounds = load_bounds bench in
  let all = List.concat_map snd sets in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.Metrics.workload) all)
  in
  let bad = ref false in
  List.iteri
    (fun i (p, rs) -> Printf.printf "[%d] %s (%d runs)\n" i p (List.length rs))
    sets;
  List.iter
    (fun w ->
      let mine set = List.filter (fun r -> r.Metrics.workload = w) set in
      let untraced set =
        List.filter (fun r -> not r.Metrics.traced) (mine set)
      in
      Printf.printf "\n%s\n" w;
      List.iter
        (fun b ->
          let per_set =
            List.map (fun (_, set) -> values (untraced set) b.name) sets
          in
          if verdict_row b per_set then bad := true)
        bounds;
      List.iteri
        (fun i (_, set) ->
          match overhead (mine set) with
          | [] -> ()
          | rs ->
            Printf.printf "  trace.overhead_ratio [%d] %.4f (n=%d)\n" i
              (Perf_stats.median rs) (List.length rs))
        sets;
      List.iter
        (fun (r : Metrics.result) ->
          if r.failed > 0 then begin
            bad := true;
            Printf.printf "  FAILED run: seed %d, %d of %d operations failed\n"
              r.seed r.failed r.attempted
          end)
        (mine all))
    workloads;
  if differing_counters all > 0 then bad := true
  else
    print_endline
      "\ncounters: identical across every run of each (workload, seed)";
  if !bad then 1 else 0
