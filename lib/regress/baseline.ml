module Json = Sb_util.Json

(* schema tags: readers reject anything else with a clear message instead
   of mis-decoding old files.  bench 3: cells gained "status"
   (failure-as-data). *)
let bench_schema = "simbench-bench-json-3"
let snapshot_schema = "simbench-baseline-1"

let ( let* ) = Result.bind

let error_in ~source msg = Error (Printf.sprintf "%s: %s" source msg)

let field ~source obj name decode =
  match Json.member name obj with
  | None -> error_in ~source (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> error_in ~source (Printf.sprintf "field %S has the wrong shape" name))

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_cell (c : Regress.cell) =
  match Sb_report.Experiments.row_to_json c.Regress.row with
  | Json.Obj fields -> Json.Obj (("experiment", Json.String c.Regress.experiment) :: fields)
  | j -> j

let cell_of_json ~source ~experiment j =
  let str name = Option.bind (Json.member name j) Json.string_opt in
  match Sb_report.Experiments.row_of_json j with
  | Error msg ->
    let source =
      match str "cell" with
      | Some cell -> Printf.sprintf "%s (cell %S)" source cell
      | None -> source
    in
    error_in ~source msg
  | Ok row ->
    Ok
      {
        Regress.experiment = Option.value (str "experiment") ~default:experiment;
        row;
      }

let cells_of_list ~source ~experiment cells =
  List.fold_left
    (fun acc c ->
      let* acc = acc in
      let* cell = cell_of_json ~source ~experiment c in
      Ok (cell :: acc))
    (Ok []) cells
  |> Result.map List.rev

let cells_of_json ~source ~experiment j =
  let* cells_json = field ~source j "cells" Json.list_opt in
  cells_of_list ~source ~experiment cells_json

(* ------------------------------------------------------------------ *)
(* File formats                                                         *)
(* ------------------------------------------------------------------ *)

let check_schema ~source ~expected j =
  match Option.bind (Json.member "schema" j) Json.string_opt with
  | Some s when s = expected -> Ok ()
  | Some s ->
    error_in ~source
      (Printf.sprintf "schema %S is not the expected %S — re-create this file \
                       with the current tools"
         s expected)
  | None ->
    error_in ~source
      (Printf.sprintf
         "no \"schema\" field: this looks like a pre-%s file (older builds \
          did not record per-repeat samples) — re-run the benchmark with \
          --json to regenerate it"
         expected)

(* one BENCH_<experiment>.json: the writer, then the reader *)
let bench_json ?run ~experiment cells =
  let recording =
    match run with
    | None -> []
    | Some ((opts : Sb_report.Experiments.run_opts), config) ->
      let open Sb_report.Experiments in
      [
        ("jobs", Json.Int opts.jobs);
        ( "config",
          Json.Obj
            [
              ("scale", Json.Int config.scale);
              ("workload_iters", Json.Int config.workload_iters);
              ("repeats", Json.Int config.repeats);
              ("switch_at", Json.String (switch_name config.switch_at));
            ] );
      ]
  in
  Json.Obj
    ((("schema", Json.String bench_schema)
     :: ("experiment", Json.String experiment)
     :: recording)
    @ [ ("cells", Json.List cells) ])

let load_bench_file path =
  let* j = Json.of_file path in
  let* () = check_schema ~source:path ~expected:bench_schema j in
  let* experiment = field ~source:path j "experiment" Json.string_opt in
  cells_of_json ~source:path ~experiment j

let is_bench_file name =
  String.length name > 6
  && String.sub name 0 6 = "BENCH_"
  && Filename.check_suffix name ".json"

let load_run_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let files = List.sort compare (List.filter is_bench_file (Array.to_list entries)) in
    if files = [] then
      error_in ~source:dir "no BENCH_*.json files (is this a --json output directory?)"
    else
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* cells = load_bench_file (Filename.concat dir name) in
          Ok (acc @ cells))
        (Ok []) files
      |> Result.map (fun cells -> { Regress.source = dir; cells })

let load_snapshot path =
  let* j = Json.of_file path in
  let* () = check_schema ~source:path ~expected:snapshot_schema j in
  let* cells = cells_of_json ~source:path ~experiment:"?" j in
  Ok { Regress.source = path; cells }

let load path =
  if not (Sys.file_exists path) then
    error_in ~source:path "no such file or directory"
  else if Sys.is_directory path then load_run_dir path
  else
    let* j = Json.of_file path in
    match Option.bind (Json.member "schema" j) Json.string_opt with
    | Some tag when tag = snapshot_schema ->
      let* cells = cells_of_json ~source:path ~experiment:"?" j in
      Ok { Regress.source = path; cells }
    | Some tag when tag = bench_schema ->
      let* experiment = field ~source:path j "experiment" Json.string_opt in
      let* cells = cells_of_json ~source:path ~experiment j in
      Ok { Regress.source = path; cells }
    | _ ->
      (* surface the standard schema message for unknown/missing tags *)
      let* () = check_schema ~source:path ~expected:snapshot_schema j in
      Ok { Regress.source = path; cells = [] }

(* Recorded rows carry the canonical label of each DBT configuration, so a
   requested "dbt:NAME" goes through the release table first:
   dbt:v2.5.0-rc2 keeps the dbt:v2.5.0-rc0 cells. *)
let filter_engine run engine =
  let engine =
    match String.split_on_char ':' engine with
    | [ "dbt"; version ] -> "dbt:" ^ Sb_dbt.Version.canonical version
    | _ -> engine
  in
  {
    run with
    Regress.cells =
      List.filter
        (fun (c : Regress.cell) -> c.row.row_engine = engine)
        run.Regress.cells;
  }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let json_of_run (run : Regress.run) =
  Json.Obj
    [
      ("schema", Json.String snapshot_schema);
      ("source", Json.String run.Regress.source);
      ( "host",
        Json.String (Printf.sprintf "OCaml %s (%s)" Sys.ocaml_version Sys.os_type)
      );
      ("cells", Json.List (List.map json_of_cell run.Regress.cells));
    ]

let write_json ~out j =
  Sb_jobs.Cache.mkdir_p (Filename.dirname out);
  let oc = open_out out in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

let write_snapshot ~out run = write_json ~out (json_of_run run)
