module Json = Sb_util.Json

let schema = "simbench-serve-json-2"

(* The previous wire schema, rejected with a migration hint rather than the
   generic unsupported-schema error: -2 added hello/session frames,
   ping/pong heartbeats, row content-address keys and submit resume. *)
let schema_v1 = "simbench-serve-json-1"

(* ------------------------------------------------------------------ *)
(* Cell specs                                                           *)
(* ------------------------------------------------------------------ *)

type cell_spec = {
  sp_bench : string;
  sp_engine : string;
  sp_arch : Sb_isa.Arch_sig.arch_id;
  sp_iters : int option;
  sp_repeats : int;
}

let arch_name = Simbench.Engines.arch_name

let spec_label sp =
  Printf.sprintf "%s/%s/%s" sp.sp_engine (arch_name sp.sp_arch) sp.sp_bench

(* The content address of one cell: everything that determines its row.
   The engine string must be canonical (Simbench.Engines.canonical_name)
   before keying, so dbt release aliases share one entry. *)
let spec_key sp =
  Sb_jobs.Cache.fingerprint
    ( "simbench-serve-cell",
      schema,
      sp.sp_bench,
      sp.sp_engine,
      arch_name sp.sp_arch,
      sp.sp_iters,
      sp.sp_repeats )

let spec_to_json sp =
  Json.Obj
    ([
       ("bench", Json.String sp.sp_bench);
       ("engine", Json.String sp.sp_engine);
       ("arch", Json.String (arch_name sp.sp_arch));
     ]
    @ (match sp.sp_iters with
      | None -> []
      | Some n -> [ ("iters", Json.Int n) ])
    @ [ ("repeats", Json.Int sp.sp_repeats) ])

let ( let* ) = Result.bind

(* [what] names the object being decoded, so an error says where the field
   is missing: "hello response: missing string field \"session\"". *)
let field kind decode what obj name =
  match Option.bind (Json.member name obj) decode with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing %s field %S" what kind name)

let str_field = field "string" Json.string_opt
let int_field = field "integer" Json.int_opt
let float_field = field "number" Json.float_opt

let spec_of_json j =
  let* bench = str_field "cell spec" j "bench" in
  let* engine = str_field "cell spec" j "engine" in
  let* arch_s = str_field "cell spec" j "arch" in
  let* arch = Simbench.Engines.arch_of_name arch_s in
  let* iters =
    match Json.member "iters" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.int_opt v with
      | Some n when n >= 1 -> Ok (Some n)
      | _ -> Error "cell spec: \"iters\" must be a positive integer")
  in
  let* repeats =
    match Json.member "repeats" j with
    | None | Some Json.Null -> Ok 1
    | Some v -> (
      match Json.int_opt v with
      | Some n when n >= 1 -> Ok n
      | _ -> Error "cell spec: \"repeats\" must be a positive integer")
  in
  Ok
    {
      sp_bench = bench;
      sp_engine = engine;
      sp_arch = arch;
      sp_iters = iters;
      sp_repeats = repeats;
    }

let specs_of_json j =
  match Option.bind (Json.member "cells" j) Json.list_opt with
  | None -> Error "missing \"cells\" array"
  | Some cells ->
    if cells = [] then Error "\"cells\" is empty"
    else
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let* sp = spec_of_json c in
          Ok (sp :: acc))
        (Ok []) cells
      |> Result.map List.rev

let row_to_json = Sb_report.Experiments.row_to_json
let row_of_json = Sb_report.Experiments.row_of_json

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)
(* ------------------------------------------------------------------ *)

type request =
  | Submit of { id : string; cells : cell_spec list; resume : bool }
  | Cancel of { id : string }
  | Ping of { seq : int }
  | Status
  | Dump
  | Shutdown

let tagged fields = Json.Obj (("schema", Json.String schema) :: fields)

let request_to_json = function
  | Submit { id; cells; resume } ->
    tagged
      ([
         ("op", Json.String "submit");
         ("id", Json.String id);
         ("cells", Json.List (List.map spec_to_json cells));
       ]
      @ if resume then [ ("resume", Json.Bool true) ] else [])
  | Cancel { id } ->
    tagged [ ("op", Json.String "cancel"); ("id", Json.String id) ]
  | Ping { seq } -> tagged [ ("op", Json.String "ping"); ("seq", Json.Int seq) ]
  | Status -> tagged [ ("op", Json.String "status") ]
  | Dump -> tagged [ ("op", Json.String "dump") ]
  | Shutdown -> tagged [ ("op", Json.String "shutdown") ]

let check_schema j =
  match Option.bind (Json.member "schema" j) Json.string_opt with
  | Some s when s = schema -> Ok ()
  | Some s when s = schema_v1 ->
    Error
      (Printf.sprintf
         "unsupported schema %S: protocol 2 adds session hello frames, \
          ping/pong heartbeats, row content-address keys and resumable \
          submissions — upgrade the client (this server speaks %S)"
         s schema)
  | Some s ->
    Error
      (Printf.sprintf "unsupported schema %S (this server speaks %S)" s schema)
  | None ->
    Error (Printf.sprintf "missing \"schema\" field (expected %S)" schema)

let op_of j =
  match Option.bind (Json.member "op" j) Json.string_opt with
  | Some op -> Ok op
  | None -> Error "missing \"op\" field"

let id_of j =
  match Option.bind (Json.member "id" j) Json.string_opt with
  | Some id when id <> "" -> Ok id
  | Some _ -> Error "\"id\" must be non-empty"
  | None -> Error "missing \"id\" field"

let request_of_json j =
  let* () = check_schema j in
  let* op = op_of j in
  match op with
  | "submit" ->
    let* id = id_of j in
    let* cells = specs_of_json j in
    let resume =
      match Json.member "resume" j with Some (Json.Bool b) -> b | _ -> false
    in
    Ok (Submit { id; cells; resume })
  | "cancel" ->
    let* id = id_of j in
    Ok (Cancel { id })
  | "ping" ->
    let* seq = int_field "ping request" j "seq" in
    Ok (Ping { seq })
  | "status" -> Ok Status
  | "dump" -> Ok Dump
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line line =
  match Json.of_string line with
  | Error msg -> Error ("malformed frame: " ^ msg)
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Responses                                                            *)
(* ------------------------------------------------------------------ *)

type response =
  | Hello of { session : string; heartbeat : float; miss_limit : int }
  | Ack of { id : string; cells : int }
  | Row of { id : string; key : string; cached : bool; cell : Json.t }
  | Job_done of { id : string; rows : int; failed : int }
  | Cancelled of { id : string; dropped : int }
  | Pong of { seq : int }
  | Status_report of Json.t
  | Run_dump of { source : string; cells : Json.t list }
  | Error_msg of { id : string option; message : string }
  | Bye of { reason : string }

let response_to_json = function
  | Hello { session; heartbeat; miss_limit } ->
    tagged
      [
        ("op", Json.String "hello");
        ("session", Json.String session);
        ("heartbeat", Json.Float heartbeat);
        ("miss_limit", Json.Int miss_limit);
      ]
  | Ack { id; cells } ->
    tagged
      [
        ("op", Json.String "ack");
        ("id", Json.String id);
        ("cells", Json.Int cells);
      ]
  | Row { id; key; cached; cell } ->
    tagged
      [
        ("op", Json.String "row");
        ("id", Json.String id);
        ("key", Json.String key);
        ("cached", Json.Bool cached);
        ("cell", cell);
      ]
  | Pong { seq } -> tagged [ ("op", Json.String "pong"); ("seq", Json.Int seq) ]
  | Job_done { id; rows; failed } ->
    tagged
      [
        ("op", Json.String "done");
        ("id", Json.String id);
        ("rows", Json.Int rows);
        ("failed", Json.Int failed);
      ]
  | Cancelled { id; dropped } ->
    tagged
      [
        ("op", Json.String "cancelled");
        ("id", Json.String id);
        ("dropped", Json.Int dropped);
      ]
  | Status_report payload -> tagged [ ("op", Json.String "status"); ("report", payload) ]
  | Run_dump { source; cells } ->
    tagged
      [
        ("op", Json.String "run");
        ("source", Json.String source);
        ("cells", Json.List cells);
      ]
  | Error_msg { id; message } ->
    tagged
      ([ ("op", Json.String "error") ]
      @ (match id with None -> [] | Some id -> [ ("id", Json.String id) ])
      @ [ ("message", Json.String message) ])
  | Bye { reason } ->
    tagged [ ("op", Json.String "bye"); ("reason", Json.String reason) ]

let response_of_json j =
  let* () = check_schema j in
  let* op = op_of j in
  let what = op ^ " response" in
  let str_field = str_field what
  and int_field = int_field what
  and float_field = float_field what in
  match op with
  | "hello" ->
    let* session = str_field j "session" in
    let* heartbeat = float_field j "heartbeat" in
    let* miss_limit = int_field j "miss_limit" in
    Ok (Hello { session; heartbeat; miss_limit })
  | "ack" ->
    let* id = id_of j in
    let* cells = int_field j "cells" in
    Ok (Ack { id; cells })
  | "pong" ->
    let* seq = int_field j "seq" in
    Ok (Pong { seq })
  | "row" ->
    let* id = id_of j in
    let* key = str_field j "key" in
    let cached =
      match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false
    in
    let* cell =
      match Json.member "cell" j with
      | Some c -> Ok c
      | None -> Error "row response: missing \"cell\""
    in
    Ok (Row { id; key; cached; cell })
  | "done" ->
    let* id = id_of j in
    let* rows = int_field j "rows" in
    let* failed = int_field j "failed" in
    Ok (Job_done { id; rows; failed })
  | "cancelled" ->
    let* id = id_of j in
    let* dropped = int_field j "dropped" in
    Ok (Cancelled { id; dropped })
  | "status" -> (
    match Json.member "report" j with
    | Some payload -> Ok (Status_report payload)
    | None -> Error "status response: missing \"report\"")
  | "run" ->
    let* source = str_field j "source" in
    let* cells =
      match Option.bind (Json.member "cells" j) Json.list_opt with
      | Some l -> Ok l
      | None -> Error "run response: missing \"cells\" array"
    in
    Ok (Run_dump { source; cells })
  | "error" ->
    let id = Option.bind (Json.member "id" j) Json.string_opt in
    let* message = str_field j "message" in
    Ok (Error_msg { id; message })
  | "bye" ->
    let* reason = str_field j "reason" in
    Ok (Bye { reason })
  | op -> Error (Printf.sprintf "unknown op %S" op)

let response_of_line line =
  match Json.of_string line with
  | Error msg -> Error ("malformed frame: " ^ msg)
  | Ok j -> response_of_json j

let frame j = Json.to_string j ^ "\n"
