type t = { dir : string }

(* Version tag of the checkpoint store layered on this cache (keys prefixed
   [ckpt_], streamed snapshot records).  Folded into [schema], so bumping
   it invalidates every fingerprint, result rows included; a checkpoint
   layout change bumps Sb_sim.Snapshot.schema_version instead, which only
   checkpoint keys fold in. *)
let checkpoint_schema = "ckpt-1"

(* bumped whenever the stored value shape changes; part of every fingerprint
   so stale cache files from older schemas can never be mis-decoded.
   3: Experiments.row gained row_samples (raw per-repeat kernel seconds)
   4: Experiments.row gained row_status/row_note (failure-as-data)
   6: checkpoint store (snapshot values under ckpt_ keys) *)
let schema = "sb-jobs-cache-6+" ^ checkpoint_schema

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else if Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir t = t.dir

let fingerprint v =
  Digest.to_hex (Digest.string (schema ^ Marshal.to_string v []))

let path t key = Filename.concat t.dir ("sb_" ^ key ^ ".cache")

(* Corrupt entries (truncated writes, a poisoned CI cache, key collisions)
   degrade to misses, but never silently: each is logged and counted, and
   the offending file is removed so the next store starts clean. *)
let evicted = ref 0

let evictions () = !evicted

let reset_evictions () = evicted := 0

let evict t ~key ~reason =
  incr evicted;
  let file = path t key in
  Printf.eprintf "[sb-jobs] cache: evicting corrupt entry %s (%s)\n%!" file
    reason;
  try Sys.remove file with Sys_error _ -> ()

(* Stale temp files: a worker that died (or was SIGKILLed at a deadline)
   mid-[store] leaves an orphan [*.tmp.<pid>] behind.  They are swept at
   [create] time — counted as evictions so they show up in stats — but
   only when the owning pid is gone: a live pid means a concurrent bench
   invocation is mid-rename and the file is not litter. *)
let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: exists, not ours *)

let sweep_stale_tmp dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        match String.rindex_opt name '.' with
        | Some i
          when i >= 4 && String.sub name (i - 4) 4 = ".tmp"
               && String.length name > 4
               && String.sub name 0 3 = "sb_" ->
          let stale =
            match int_of_string_opt (String.sub name (i + 1) (String.length name - i - 1)) with
            | Some pid -> not (pid_alive pid)
            | None -> true (* unparsable suffix: nobody owns it *)
          in
          if stale then begin
            incr evicted;
            let file = Filename.concat dir name in
            Printf.eprintf "[sb-jobs] cache: sweeping stale temp file %s\n%!"
              file;
            try Sys.remove file with Sys_error _ -> ()
          end
        | _ -> ())
      entries

(* An entry is its key, marshalled, then its body.  A row's body is one
   marshalled value.  A streamed body (checkpoints, under [ckpt_] keys) is
   a run of records, each marshalled as [Some v], closed by one [None]
   that must end the file: a reader holds one record at a time, and a
   file cut between two records fails to decode like any other cut. *)
let streamed key = String.starts_with ~prefix:"ckpt_" key

let output_record oc v = Marshal.to_channel oc (Some v) []
let output_end oc = Marshal.to_channel oc None []

let input_record (type a) ic : a option =
  match (Marshal.from_channel ic : a option) with
  | Some _ as r -> r
  | None -> (
    match input_char ic with
    | exception End_of_file -> None
    | _ -> failwith "bytes after the end record")

type damage = Unreadable of string | Undecodable of string | Stored_key of string

let end_record = Marshal.to_string None []

(* A streamed body, walked by its marshal headers alone: each record's
   data must be in the file, and the last record must be the end record
   with nothing after it.  Payloads are left to the loader to decode, so
   checking an 8 MiB checkpoint allocates nothing per record. *)
let check_records ic =
  let hs = Marshal.header_size in
  let len = in_channel_length ic in
  let buf = Bytes.create (String.length end_record) in
  let damaged fmt = Printf.ksprintf (fun s -> Error (Undecodable s)) fmt in
  let rec go n =
    let pos = pos_in ic in
    if pos = len then damaged "cut after %d records, before the end record" n
    else
      match
        really_input ic buf 0 hs;
        Marshal.total_size buf 0
      with
      | exception End_of_file -> damaged "record %d is cut" (n + 1)
      | exception Failure _ -> damaged "record %d has no marshal header" (n + 1)
      | size when pos + size > len -> damaged "record %d is cut" (n + 1)
      | size when size = Bytes.length buf ->
        really_input ic buf hs (size - hs);
        if not (Bytes.equal buf (Bytes.unsafe_of_string end_record)) then
          go (n + 1)
        else if pos + size = len then Ok ()
        else damaged "bytes after the end record"
      | size ->
        seek_in ic (pos + size);
        go (n + 1)
  in
  go 0

(* The structural check of one entry, for the create-time sweep and fsck:
   the stored key decodes and equals [key], and so does the body — one
   value for a row, every record's framing through the end record for a
   streamed entry. *)
let check_entry ~file ~key =
  match open_in_bin file with
  | exception Sys_error e -> Error (Unreadable e)
  | ic ->
    let r =
      match (Marshal.from_channel ic : string) with
      | stored_key when not (String.equal stored_key key) ->
        Error (Stored_key stored_key)
      | _ when streamed key -> (
        try check_records ic
        with e -> Error (Undecodable (Printexc.to_string e)))
      | _ -> (
        match (Marshal.from_channel ic : Obj.t) with
        | _ -> Ok ()
        | exception _ -> Error (Undecodable "marshal segments do not decode"))
      | exception _ -> Error (Undecodable "the key does not decode")
    in
    close_in_noerr ic;
    r

(* Checkpoint files are long-lived (one warm boot feeds a whole grid), so
   a corrupt one is swept at create time rather than on first load, by
   [check_entry]; the snapshot's own memory digest still guards the
   restore path. *)
let sweep_corrupt_checkpoints dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        if
          String.starts_with ~prefix:"sb_" name
          && Filename.check_suffix name ".cache"
        then begin
          let key =
            String.sub name 3 (String.length name - 3 - String.length ".cache")
          in
          let file = Filename.concat dir name in
          if streamed key then
            match check_entry ~file ~key with
            | Ok () | Error (Unreadable _) -> () (* raced away: nothing to sweep *)
            | Error (Undecodable _ | Stored_key _) ->
              incr evicted;
              Printf.eprintf
                "[sb-jobs] cache: sweeping corrupt checkpoint %s\n%!" file;
              (try Sys.remove file with Sys_error _ -> ())
        end)
      entries

let create ~dir =
  mkdir_p dir;
  sweep_stale_tmp dir;
  sweep_corrupt_checkpoints dir;
  { dir }

let load_channel t ~key read =
  match open_in_bin (path t key) with
  | exception Sys_error _ -> None (* plain miss: no such entry *)
  | ic ->
    let v =
      match
        let stored_key : string = Marshal.from_channel ic in
        if String.equal stored_key key then `Hit (read ic) else `Key_mismatch
      with
      | `Hit v -> Some v
      | `Key_mismatch ->
        evict t ~key ~reason:"stored key mismatch";
        None
      | exception _ ->
        evict t ~key ~reason:"truncated or undecodable";
        None
    in
    close_in_noerr ic;
    v

let load (type a) t ~key : a option =
  load_channel t ~key (fun ic : a -> Marshal.from_channel ic)

(* Durability is best-effort by nature: some filesystems (and the
   directory fsync on a few) refuse the call, and a cache entry is never
   worth failing the run over — the crash-consistency invariant that
   matters is the ordering (data on disk before the rename publishes it),
   which fsync establishes wherever it is supported. *)
let fsync_quietly fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    fsync_quietly fd;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let store_channel t ~key write =
  let file = path t key in
  (* crash-consistent publish: write to a private temp file, fsync the
     data, rename into place, fsync the directory.  Concurrent writers
     (pool workers of separate bench invocations) can race on the same
     cell without corrupting it, and a crash at any point leaves either
     the old entry, the new entry, or a temp file [sweep_stale_tmp] /
     [fsck] reclaims — never a half-written entry under the real name *)
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  match
    Marshal.to_channel oc key [];
    write oc;
    flush oc;
    fsync_quietly fd;
    close_out oc
  with
  | () ->
    Sys.rename tmp file;
    fsync_dir t.dir
  | exception e ->
    (* ENOSPC, ...: leave no litter behind *)
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let store t ~key v = store_channel t ~key (fun oc -> Marshal.to_channel oc v [])

let clear t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        if
          String.length name > 3
          && String.sub name 0 3 = "sb_"
          && Filename.check_suffix name ".cache"
        then try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ())
      entries
