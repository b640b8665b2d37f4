module Json = Sb_util.Json
module Stats = Sb_util.Stats
module Tablefmt = Sb_util.Tablefmt

type cell = { experiment : string; row : Sb_report.Experiments.row }

(* "retried n" cells carry real measurements — the flakiness was upstream
   of the numbers — so they compare like "ok"; terminal failures
   ("failed"/"timeout"/"quarantined") carry nan placeholders and must
   never reach the classifier *)
let ok_status s =
  s = "ok" || (String.length s >= 7 && String.sub s 0 7 = "retried")

type run = { source : string; cells : cell list }

let default_threshold = 0.05

(* ------------------------------------------------------------------ *)
(* Classification                                                       *)
(* ------------------------------------------------------------------ *)

type verdict = Regressed | Improved | Unchanged

type note = Confirmed | Below_threshold | Within_noise

type comparison = {
  c_old : cell;
  c_new : cell;
  c_delta : float;
  c_ci_old : float * float;
  c_ci_new : float * float;
  c_verdict : verdict;
  c_note : note;
  c_insns_changed : bool;
}

let classify ~threshold ~old_cell ~new_cell =
  let o = old_cell.row and n = new_cell.row in
  let delta = Stats.relative_change ~baseline:o.row_seconds n.row_seconds in
  let ci_old = Stats.ci95 o.row_samples in
  let ci_new = Stats.ci95 n.row_samples in
  let verdict, note =
    if Float.abs delta < threshold then (Unchanged, Below_threshold)
    else if Stats.intervals_overlap ci_old ci_new then (Unchanged, Within_noise)
    else if delta > 0. then (Regressed, Confirmed)
    else (Improved, Confirmed)
  in
  {
    c_old = old_cell;
    c_new = new_cell;
    c_delta = delta;
    c_ci_old = ci_old;
    c_ci_new = ci_new;
    c_verdict = verdict;
    c_note = note;
    c_insns_changed = o.row_kernel_insns <> n.row_kernel_insns;
  }

(* ------------------------------------------------------------------ *)
(* Pairing                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  r_threshold : float;
  r_old_source : string;
  r_new_source : string;
  r_engine_remap : (string * string) option;
  r_pairs : comparison list;
  r_only_old : cell list;
  r_only_new : cell list;
  r_mismatched : (cell * cell) list;
  r_skipped_status : (cell * cell) list;
  r_skipped_samples : (cell * cell) list;
}

let pair_key ~with_engine { row = r; _ } =
  ((if with_engine then r.row_engine else ""), r.row_arch, r.row_cell)

(* cells are recorded per experiment but the sweep memoization means the
   same (engine, arch, cell) triple shows up with identical numbers in
   every experiment that shares it — keep the first occurrence *)
let dedup ~with_engine cells =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let k = pair_key ~with_engine c in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    cells

let engines_of cells =
  List.sort_uniq compare (List.map (fun c -> c.row.row_engine) cells)

let pair_runs ~with_engine old_cells new_cells =
  let key = pair_key ~with_engine in
  let old_cells = dedup ~with_engine old_cells in
  let new_cells = dedup ~with_engine new_cells in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace new_tbl (key c) c) new_cells;
  let pairs, only_old =
    List.partition_map
      (fun o ->
        match Hashtbl.find_opt new_tbl (key o) with
        | Some n ->
          Hashtbl.remove new_tbl (key o);
          Either.Left (o, n)
        | None -> Either.Right o)
      old_cells
  in
  let only_new =
    List.filter (fun c -> Hashtbl.mem new_tbl (key c)) new_cells
  in
  (pairs, only_old, only_new)

let compare_runs ?(threshold = default_threshold) ?(ignore_engine = false)
    ~old_run ~new_run () =
  let pairs, only_old, only_new, remap =
    let strict =
      pair_runs ~with_engine:(not ignore_engine) old_run.cells new_run.cells
    in
    match strict with
    | [], _, _ when not ignore_engine -> (
      (* no key matched: if each side is a single (different) engine
         configuration, this is an engine-version diff — the paper's
         old-vs-new QEMU scenario — so pair by (arch, cell) and say so *)
      match (engines_of old_run.cells, engines_of new_run.cells) with
      | [ e_old ], [ e_new ] when e_old <> e_new ->
        let pairs, only_old, only_new =
          pair_runs ~with_engine:false old_run.cells new_run.cells
        in
        (pairs, only_old, only_new, Some (e_old, e_new))
      | _ ->
        let pairs, only_old, only_new = strict in
        (pairs, only_old, only_new, None)
      )
    | pairs, only_old, only_new -> (pairs, only_old, only_new, None)
  in
  (* failed/timeout/quarantined cells carry placeholder numbers, so route
     them out before the iteration-count check (a failed cell records
     iters = 0, which would otherwise mislabel the pair as mismatched) *)
  let skipped_status, rest =
    List.partition
      (fun (o, n) ->
        not (ok_status o.row.row_status && ok_status n.row.row_status))
      pairs
  in
  let rest, mismatched =
    List.partition (fun (o, n) -> o.row.row_iters = n.row.row_iters) rest
  in
  (* a 0- or 1-sample vector has no spread: ci95 degenerates to a point
     (or nan), and "significance" would be decided by raw threshold alone.
     Classify such pairs as skipped rather than pretending to a verdict. *)
  let enough c = List.length c.row.row_samples >= 2 in
  let comparable, skipped_samples =
    List.partition (fun (o, n) -> enough o && enough n) rest
  in
  let comparisons =
    List.map
      (fun (o, n) -> classify ~threshold ~old_cell:o ~new_cell:n)
      comparable
  in
  {
    r_threshold = threshold;
    r_old_source = old_run.source;
    r_new_source = new_run.source;
    r_engine_remap = remap;
    r_pairs = comparisons;
    r_only_old = only_old;
    r_only_new = only_new;
    r_mismatched = mismatched;
    r_skipped_status = skipped_status;
    r_skipped_samples = skipped_samples;
  }

let regressions report =
  List.filter (fun c -> c.c_verdict = Regressed) report.r_pairs

let improvements report =
  List.filter (fun c -> c.c_verdict = Improved) report.r_pairs

let exit_code ~strict report =
  if strict && regressions report <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* Counter gate                                                         *)
(* ------------------------------------------------------------------ *)

type counter_report = {
  k_old_source : string;
  k_new_source : string;
  k_equal : int;
  k_differ : (cell * cell * string list) list;
  k_only_old : cell list;
  k_only_new : cell list;
}

(* what differs between two cells' deterministic fields; a counter absent
   on one side reads 0, as the row encoder omits zero counters *)
let counter_differences { row = o; _ } { row = n; _ } =
  let field name a b = if a = b then [] else [ Printf.sprintf "%s %d -> %d" name a b ] in
  let get perf name = Option.value (List.assoc_opt name perf) ~default:0 in
  let names = List.sort_uniq compare (List.map fst o.row_perf @ List.map fst n.row_perf) in
  (if ok_status o.row_status && ok_status n.row_status then []
   else [ Printf.sprintf "status %s -> %s" o.row_status n.row_status ])
  @ field "iters" o.row_iters n.row_iters
  @ field "kernel_insns" o.row_kernel_insns n.row_kernel_insns
  @ List.concat_map (fun name -> field name (get o.row_perf name) (get n.row_perf name)) names

let compare_counters ?(ignore_engine = false) ~old_run ~new_run () =
  let pairs, only_old, only_new =
    pair_runs ~with_engine:(not ignore_engine) old_run.cells new_run.cells
  in
  let differ =
    List.filter_map
      (fun (o, n) ->
        match counter_differences o n with [] -> None | d -> Some (o, n, d))
      pairs
  in
  {
    k_old_source = old_run.source;
    k_new_source = new_run.source;
    k_equal = List.length pairs - List.length differ;
    k_differ = differ;
    k_only_old = only_old;
    k_only_new = only_new;
  }

let counters_exit_code k =
  if k.k_differ = [] && k.k_only_old = [] && k.k_only_new = [] then 0 else 1

let render_counters k =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name { row = r; _ } =
    Printf.sprintf "%s/%s/%s" r.row_cell r.row_arch r.row_engine
  in
  out "Counters OLD=%s vs NEW=%s: %d paired cells, %d equal\n" k.k_old_source
    k.k_new_source
    (k.k_equal + List.length k.k_differ)
    k.k_equal;
  List.iter
    (fun (o, _, d) -> out "  differ %s: %s\n" (name o) (String.concat ", " d))
    k.k_differ;
  List.iter (fun c -> out "  only in OLD: %s\n" (name c)) k.k_only_old;
  List.iter (fun c -> out "  only in NEW: %s\n" (name c)) k.k_only_new;
  out "Counter gate: %s\n"
    (if counters_exit_code k = 0 then "every cell equal"
     else
       Printf.sprintf "%d cells differ, %d only in OLD, %d only in NEW"
         (List.length k.k_differ) (List.length k.k_only_old)
         (List.length k.k_only_new));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Category attribution                                                 *)
(* ------------------------------------------------------------------ *)

let category_of_cell name =
  match Sb_workloads.Target.find name with
  | Ok b -> Simbench.Category.name b.Simbench.Bench.category
  | Error _ -> "Other"

(* the paper's reading of a category-level shift: which simulator
   mechanism moves that category *)
let mechanism_hint = function
  | "Code Generation" ->
    Some "translation / code-generation path (translation cache, IR passes)"
  | "Control Flow" ->
    Some "block dispatch and chaining (front caches, chain verification)"
  | "Exception Handling" -> Some "exception and interrupt delivery"
  | "I/O" -> Some "device emulation / memory-mapped I/O path"
  | "Memory System" -> Some "memory system (TLB/page cache, memory helpers)"
  | "Application" -> Some "whole-workload behaviour (SPEC-analog level)"
  | _ -> None

type category_summary = {
  cat_name : string;
  cat_cells : int;
  cat_regressed : int;
  cat_improved : int;
  cat_geomean_ratio : float;
}

let attribution report =
  let tbl : (string, comparison list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun c ->
      let cat = category_of_cell c.c_old.row.row_cell in
      match Hashtbl.find_opt tbl cat with
      | Some l -> l := c :: !l
      | None ->
        Hashtbl.add tbl cat (ref [ c ]);
        order := cat :: !order)
    report.r_pairs;
  List.rev_map
    (fun cat ->
      let cs = !(Hashtbl.find tbl cat) in
      let count v = List.length (List.filter (fun c -> c.c_verdict = v) cs) in
      {
        cat_name = cat;
        cat_cells = List.length cs;
        cat_regressed = count Regressed;
        cat_improved = count Improved;
        cat_geomean_ratio =
          Stats.geomean
            (List.map
               (fun c -> c.c_new.row.row_seconds /. c.c_old.row.row_seconds)
               cs);
      })
    !order

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pct f = Printf.sprintf "%+.1f%%" (f *. 100.)

let verdict_name = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unchanged -> "unchanged"

let note_name = function
  | Confirmed -> "confirmed"
  | Below_threshold -> "below threshold"
  | Within_noise -> "within noise"

let verdict_cell c =
  match c.c_verdict with
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unchanged -> (
    match c.c_note with
    | Within_noise -> "unchanged (noise)"
    | _ -> "unchanged")

let cell_row c =
  let o = c.c_old.row and n = c.c_new.row in
  [
    o.row_cell;
    o.row_arch;
    (match o.row_engine = n.row_engine with
    | true -> o.row_engine
    | false -> o.row_engine ^ " -> " ^ n.row_engine);
    Printf.sprintf "%.4f" o.row_seconds;
    Printf.sprintf "%.4f" n.row_seconds;
    pct c.c_delta;
    verdict_cell c ^ (if c.c_insns_changed then " !insns" else "");
  ]

let cells_header = [ "Cell"; "Arch"; "Engine"; "Old s"; "New s"; "Delta"; "Verdict" ]

let category_summary_line s =
  if s.cat_regressed > 0 then
    Printf.sprintf "%s regressed %s (%d/%d cells)%s" s.cat_name
      (pct (s.cat_geomean_ratio -. 1.))
      s.cat_regressed s.cat_cells
      (match mechanism_hint s.cat_name with
      | Some m -> " — consistent with a change in the " ^ m
      | None -> "")
  else if s.cat_improved > 0 then
    Printf.sprintf "%s improved %s (%d/%d cells)" s.cat_name
      (pct (s.cat_geomean_ratio -. 1.))
      s.cat_improved s.cat_cells
  else Printf.sprintf "%s unchanged" s.cat_name

let render ?(all_cells = false) report =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "Comparing OLD=%s vs NEW=%s: %d paired cells, threshold +/-%.1f%%\n"
    report.r_old_source report.r_new_source
    (List.length report.r_pairs)
    (report.r_threshold *. 100.);
  (match report.r_engine_remap with
  | Some (e_old, e_new) ->
    out "(engine-version diff: every cell compared across %s -> %s)\n" e_old
      e_new
  | None -> ());
  out "\n";
  let changed =
    List.filter (fun c -> c.c_verdict <> Unchanged) report.r_pairs
  in
  let shown = if all_cells then report.r_pairs else changed in
  let shown =
    (* regressions first, then by magnitude *)
    List.stable_sort
      (fun a b ->
        match (a.c_verdict, b.c_verdict) with
        | Regressed, Regressed -> compare b.c_delta a.c_delta
        | Regressed, _ -> -1
        | _, Regressed -> 1
        | _ -> compare (Float.abs b.c_delta) (Float.abs a.c_delta))
      shown
  in
  if shown = [] then out "No cells to show: every paired cell is unchanged.\n"
  else begin
    Buffer.add_string buf
      (Tablefmt.render ~header:cells_header (List.map cell_row shown));
    if (not all_cells) && List.length report.r_pairs > List.length shown then
      out "(%d unchanged cells not shown)\n"
        (List.length report.r_pairs - List.length shown)
  end;
  out "\nCategory attribution:\n";
  List.iter (fun s -> out "  %s\n" (category_summary_line s)) (attribution report);
  if report.r_skipped_status <> [] then begin
    out "\nSkipped cells (failure status, not compared):\n";
    List.iter
      (fun ({ row = o; _ }, { row = n; _ }) ->
        out "  %s/%s/%s: old %s, new %s\n" o.row_cell o.row_arch o.row_engine
          o.row_status n.row_status)
      report.r_skipped_status
  end;
  let n v = List.length (List.filter (fun c -> c.c_verdict = v) report.r_pairs) in
  out "\nSummary: %d regressed, %d improved, %d unchanged" (n Regressed)
    (n Improved) (n Unchanged);
  if report.r_only_old <> [] then
    out "; %d cells only in OLD" (List.length report.r_only_old);
  if report.r_only_new <> [] then
    out "; %d cells only in NEW" (List.length report.r_only_new);
  if report.r_mismatched <> [] then
    out "; %d pairs skipped (iteration counts differ)"
      (List.length report.r_mismatched);
  if report.r_skipped_status <> [] then
    out "; %d pairs skipped (failed/timeout cells)"
      (List.length report.r_skipped_status);
  if report.r_skipped_samples <> [] then
    out "; %d pairs skipped (insufficient samples)"
      (List.length report.r_skipped_samples);
  out "\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_comparison c =
  let interval (lo, hi) = Json.List [ Json.Float lo; Json.Float hi ] in
  let o = c.c_old.row and n = c.c_new.row in
  Json.Obj
    [
      ("cell", Json.String o.row_cell);
      ("arch", Json.String o.row_arch);
      ("old_engine", Json.String o.row_engine);
      ("new_engine", Json.String n.row_engine);
      ("old_seconds", Json.Float o.row_seconds);
      ("new_seconds", Json.Float n.row_seconds);
      ("delta", Json.Float c.c_delta);
      ("ci_old", interval c.c_ci_old);
      ("ci_new", interval c.c_ci_new);
      ("verdict", Json.String (verdict_name c.c_verdict));
      ("note", Json.String (note_name c.c_note));
      ("insns_changed", Json.Bool c.c_insns_changed);
      ("category", Json.String (category_of_cell o.row_cell));
    ]

let to_json report =
  let n v = List.length (List.filter (fun c -> c.c_verdict = v) report.r_pairs) in
  Json.Obj
    [
      ("schema", Json.String "simbench-compare-1");
      ("old", Json.String report.r_old_source);
      ("new", Json.String report.r_new_source);
      ("threshold", Json.Float report.r_threshold);
      ( "engine_remap",
        match report.r_engine_remap with
        | Some (a, b) -> Json.List [ Json.String a; Json.String b ]
        | None -> Json.Null );
      ("regressed", Json.Int (n Regressed));
      ("improved", Json.Int (n Improved));
      ("unchanged", Json.Int (n Unchanged));
      ("only_old", Json.Int (List.length report.r_only_old));
      ("only_new", Json.Int (List.length report.r_only_new));
      ("skipped_status", Json.Int (List.length report.r_skipped_status));
      ("skipped_samples", Json.Int (List.length report.r_skipped_samples));
      ( "skipped",
        Json.List
          (List.map
             (fun ({ row = o; _ }, { row = n; _ }) ->
               Json.Obj
                 [
                   ("cell", Json.String o.row_cell);
                   ("arch", Json.String o.row_arch);
                   ("engine", Json.String o.row_engine);
                   ("old_status", Json.String o.row_status);
                   ("new_status", Json.String n.row_status);
                 ])
             report.r_skipped_status) );
      ( "categories",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("category", Json.String s.cat_name);
                   ("cells", Json.Int s.cat_cells);
                   ("regressed", Json.Int s.cat_regressed);
                   ("improved", Json.Int s.cat_improved);
                   ("geomean_ratio", Json.Float s.cat_geomean_ratio);
                 ])
             (attribution report)) );
      ("cells", Json.List (List.map json_of_comparison report.r_pairs));
    ]
