(** Store integrity checker: the offline twin of {!Cache}'s lazy
    eviction.

    Walks a cache/checkpoint/baseline directory and classifies every
    [sb_*] file with {!Cache.check_entry}: decodable entries whose stored
    key matches the file name are [Ok_entry]; torn or bit-rotted files,
    and checkpoints that stop before their end record, are [Truncated];
    decodable files under the wrong name are [Key_mismatch]; [*.tmp.*]
    files are [Stale_tmp] when their owning pid is gone and [Live_tmp]
    (in-flight, never corruption) when it is alive.  With [repair],
    damaged entries are evicted — the store degrades to cache misses
    instead of poisoning a run.  Files without the [sb_] prefix are
    never touched. *)

type verdict = Ok_entry | Truncated | Key_mismatch | Stale_tmp | Live_tmp

val verdict_name : verdict -> string
(** ["ok"] / ["truncated"] / ["key-mismatch"] / ["stale-tmp"] /
    ["live-tmp"]. *)

type entry = { file : string; verdict : verdict; detail : string }

type report = {
  dir : string;
  entries : entry list;  (** every [sb_*] file, in name order *)
  ok : int;
  truncated : int;
  key_mismatch : int;
  stale_tmp : int;
  live_tmp : int;
  repaired : int;  (** damaged files removed (only with [repair]) *)
  unrepairable : int;  (** damaged files that could not be removed *)
}

val clean : report -> bool
(** No truncated, key-mismatched or stale-temp files (live temp files
    are fine). *)

val scan : ?repair:bool -> dir:string -> unit -> (report, string) result
(** Scan (and with [repair], heal) one directory.  [Error] only when the
    directory itself cannot be read. *)

val report_to_json : report -> Sb_util.Json.t
(** Machine-readable report (damaged entries listed, ok ones only
    counted), schema [simbench-fsck-json-1]. *)
