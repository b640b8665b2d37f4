(* Store integrity checker: the offline twin of Cache's lazy eviction.

   Cache.load already evicts a corrupt entry when it happens to be
   looked up; fsck walks a whole cache/checkpoint/baseline directory up
   front and classifies every [sb_*] file, so a damaged store is found
   before a run depends on it — and, with [repair], healed by evicting
   exactly the damaged entries (good ones are never touched). *)

type verdict =
  | Ok_entry
  | Truncated  (* the key or body does not decode: torn, cut or bit-rotted *)
  | Key_mismatch  (* decodes, but the stored key disagrees with the name *)
  | Stale_tmp  (* temp file whose owning pid is gone *)
  | Live_tmp  (* temp file with a live owner: in-flight, not corruption *)

let verdict_name = function
  | Ok_entry -> "ok"
  | Truncated -> "truncated"
  | Key_mismatch -> "key-mismatch"
  | Stale_tmp -> "stale-tmp"
  | Live_tmp -> "live-tmp"

type entry = { file : string; verdict : verdict; detail : string }

type report = {
  dir : string;
  entries : entry list;
  ok : int;
  truncated : int;
  key_mismatch : int;
  stale_tmp : int;
  live_tmp : int;
  repaired : int;
  unrepairable : int;
}

let clean r = r.truncated = 0 && r.key_mismatch = 0 && r.stale_tmp = 0

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true

(* "sb_<key>.cache" -> Some key *)
let key_of_name name =
  if
    String.length name > String.length "sb_.cache"
    && String.sub name 0 3 = "sb_"
    && Filename.check_suffix name ".cache"
  then Some (String.sub name 3 (String.length name - 3 - String.length ".cache"))
  else None

(* "<anything>.tmp.<pid>" left by Cache.store *)
let tmp_pid name =
  match String.rindex_opt name '.' with
  | Some i when i >= 4 && String.sub name (i - 4) 4 = ".tmp" ->
    Some (int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)))
  | _ -> None

let check_entry file expect_key =
  match Cache.check_entry ~file ~key:expect_key with
  | Ok () -> (Ok_entry, "")
  | Error (Cache.Unreadable e | Cache.Undecodable e) -> (Truncated, e)
  | Error (Cache.Stored_key k) ->
    ( Key_mismatch,
      Printf.sprintf "stored key %s"
        (if String.length k > 24 then String.sub k 0 24 ^ "..." else k) )

let scan ?(repair = false) ~dir () =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s: not a directory" dir)
  else
    match Sys.readdir dir with
    | exception Sys_error e -> Error e
    | names ->
      Array.sort compare names;
      let entries = ref [] in
      let repaired = ref 0 in
      let unrepairable = ref 0 in
      let remove file =
        match Sys.remove file with
        | () -> incr repaired
        | exception Sys_error _ -> incr unrepairable
      in
      Array.iter
        (fun name ->
          if String.length name > 3 && String.sub name 0 3 = "sb_" then begin
            let file = Filename.concat dir name in
            let verdict, detail =
              match tmp_pid name with
              | Some (Some pid) when pid_alive pid ->
                (Live_tmp, Printf.sprintf "writer pid %d is alive" pid)
              | Some (Some pid) ->
                (Stale_tmp, Printf.sprintf "writer pid %d is gone" pid)
              | Some None -> (Stale_tmp, "unparsable owner pid")
              | None -> (
                match key_of_name name with
                | Some key -> check_entry file key
                | None -> (Key_mismatch, "unrecognised sb_ file name"))
            in
            (match verdict with
             | (Truncated | Key_mismatch | Stale_tmp) when repair -> remove file
             | _ -> ());
            entries := { file; verdict; detail } :: !entries
          end)
        names;
      let entries = List.rev !entries in
      let count v =
        List.length (List.filter (fun e -> e.verdict = v) entries)
      in
      Ok
        { dir;
          entries;
          ok = count Ok_entry;
          truncated = count Truncated;
          key_mismatch = count Key_mismatch;
          stale_tmp = count Stale_tmp;
          live_tmp = count Live_tmp;
          repaired = !repaired;
          unrepairable = !unrepairable
        }

module Json = Sb_util.Json

let report_to_json r =
  Json.Obj
    [ ("schema", Json.String "simbench-fsck-json-1");
      ("dir", Json.String r.dir);
      ("ok", Json.Int r.ok);
      ("truncated", Json.Int r.truncated);
      ("key_mismatch", Json.Int r.key_mismatch);
      ("stale_tmp", Json.Int r.stale_tmp);
      ("live_tmp", Json.Int r.live_tmp);
      ("repaired", Json.Int r.repaired);
      ("unrepairable", Json.Int r.unrepairable);
      ("clean", Json.Bool (clean r));
      ( "entries",
        Json.List
          (List.filter_map
             (fun e ->
               if e.verdict = Ok_entry then None
               else
                 Some
                   (Json.Obj
                      [ ("file", Json.String e.file);
                        ("verdict", Json.String (verdict_name e.verdict));
                        ("detail", Json.String e.detail)
                      ]))
             r.entries) )
    ]
