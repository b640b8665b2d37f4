(** Wire protocol of the benchmark service: newline-delimited JSON frames,
    schema [simbench-serve-json-2].

    Every frame — request or response — is one JSON object on one line,
    carrying a ["schema"] field; frames with a different schema value are
    rejected before any other field is inspected, so old clients get one
    clear error instead of a field-by-field parse failure (the retired
    [-1] schema gets a dedicated migration message naming what changed).
    Malformed JSON is reported with {!Sb_util.Json}'s line/column
    positions.

    Protocol 2 adds the resilience layer: the server opens every
    connection with a [hello] frame carrying a server-assigned session id
    and its heartbeat contract; clients send [ping] frames answered by
    [pong] so both sides detect a dead peer in bounded time; every [row]
    frame carries the cell's content-address [key] so a reconnecting
    client can resume exactly the cells it has not yet received; and
    [submit] frames may be flagged [resume] so reconnections are counted
    by the server.

    A [row] frame's cell is {!Sb_report.Experiments.row_to_json} of the
    row, the cell object of [simbench report --json] files, so rows
    streamed from a server decode with the same
    {!Sb_report.Experiments.row_of_json} that [Sb_regress.Baseline] and
    the [compare]/[baseline] verbs use.  A missing or ill-typed field is
    reported against the object that lacks it: ["cell spec: ..."],
    ["row: ..."], or ["<op> request: ..."] / ["<op> response: ..."] for
    the fields of a frame. *)

module Json = Sb_util.Json

val schema : string
(** ["simbench-serve-json-2"]. *)

val schema_v1 : string
(** The retired ["simbench-serve-json-1"], rejected with a migration
    message. *)

(** {2 Cell specs} *)

type cell_spec = {
  sp_bench : string;  (** a name {!Sb_workloads.Target.find} resolves *)
  sp_engine : string;  (** engine spelling per {!Simbench.Engines.of_string} *)
  sp_arch : Sb_isa.Arch_sig.arch_id;
  sp_iters : int option;  (** [None] = the bench/workload default *)
  sp_repeats : int;  (** >= 1 *)
}

val arch_name : Sb_isa.Arch_sig.arch_id -> string
(** {!Simbench.Engines.arch_name}: ["sba"] / ["vlx"]. *)

val spec_label : cell_spec -> string
(** ["engine/arch/bench"], for logs and failure rows. *)

val canonical : cell_spec -> cell_spec
(** The spelling a spec is keyed and run under: the engine's
    {!Simbench.Engines.canonical_name} and the bench's own name as
    {!Sb_workloads.Target.find} returns it.  An unknown name keeps its
    spelling.  The daemon's submit path and {!Resilient}'s row check-off
    both call it, so they agree on every key. *)

val spec_key : cell_spec -> string
(** Content address of the cell's result: a {!Sb_jobs.Cache.fingerprint}
    over the schema version and every spec field.  The spec must already
    be {!canonical}, so alias spellings of the same cell share one cache
    entry. *)

val spec_to_json : cell_spec -> Json.t
val spec_of_json : Json.t -> (cell_spec, string) result

val specs_of_json : Json.t -> (cell_spec list, string) result
(** The non-empty ["cells"] array of a submission frame or a spec file. *)

(** {2 Rows} *)

val row_to_json : Sb_report.Experiments.row -> Json.t
(** {!Sb_report.Experiments.row_to_json}. *)

val row_of_json : Json.t -> (Sb_report.Experiments.row, string) result
(** {!Sb_report.Experiments.row_of_json}. *)

(** {2 Requests (client to server)} *)

type request =
  | Submit of { id : string; cells : cell_spec list; resume : bool }
      (** [resume] marks a re-submission after a reconnect (counted by the
          server; the content-addressed store guarantees no re-runs) *)
  | Cancel of { id : string }
  | Ping of { seq : int }  (** heartbeat; the server echoes [Pong seq] *)
  | Status
  | Dump  (** every row the server has produced or loaded, as a run *)
  | Shutdown

val request_to_json : request -> Json.t

val request_of_line : string -> (request, string) result
(** Parse one frame (without its trailing newline).  Errors cover
    malformed JSON (with line/column), schema mismatch, and missing or
    ill-typed fields. *)

(** {2 Responses (server to client)} *)

type response =
  | Hello of { session : string; heartbeat : float; miss_limit : int }
      (** first frame of every connection: the server-assigned session id
          and the heartbeat contract — the server drops a client silent
          for more than [heartbeat *. miss_limit] seconds, and a client
          should declare the server gone on the same budget *)
  | Ack of { id : string; cells : int }  (** job accepted, cells validated *)
  | Row of { id : string; key : string; cached : bool; cell : Json.t }
      (** one result row; [key] is the cell's {!spec_key} content address
          (what a resuming client checks off), [cached] when it was served
          without running a simulation (persistent cache hit or coalesced
          with an in-flight computation) *)
  | Job_done of { id : string; rows : int; failed : int }
  | Cancelled of { id : string; dropped : int }
      (** [dropped] cells were abandoned before running *)
  | Pong of { seq : int }  (** heartbeat echo *)
  | Status_report of Json.t
  | Run_dump of { source : string; cells : Json.t list }
  | Error_msg of { id : string option; message : string }
      (** [id] present when the error rejects a specific job *)
  | Bye of { reason : string }  (** server is shutting down *)

val response_to_json : response -> Json.t
val response_of_line : string -> (response, string) result

val frame : Json.t -> string
(** One wire frame: the compact JSON encoding plus the ['\n'] terminator. *)
