(** Persistent on-disk result cache for experiment cells.

    Values are stored with [Marshal] under a caller-supplied key; the key is
    expected to be a {!fingerprint} of everything that determines the result
    (engine knobs, guest architecture, workload kind, iteration counts,
    scale), so a change to any knob produces a different key and the stale
    cell is simply never looked up again.

    The load path is type-unsafe in the way [Marshal] always is: a key must
    never be reused for values of a different type.  Deriving keys with
    {!fingerprint} (which folds in a schema version) keeps that property. *)

type t

val create : dir:string -> t
(** Creates [dir] (and parents) if needed, and sweeps stale [*.tmp.<pid>]
    files left by writers that died mid-{!store} (only when the owning
    pid is gone — a live pid is a concurrent writer, not litter), plus any
    checkpoint file ([sb_ckpt_*.cache]) that fails {!check_entry}.  Swept
    files count as {!evictions}. *)

val checkpoint_schema : string
(** Version tag of the checkpoint store layered on this cache; folded into
    the cache schema (and thus every {!fingerprint}). *)

val dir : t -> string

val fingerprint : 'a -> string
(** Hex digest of the marshalled value (plus the cache schema version).
    The value must be marshallable without closures: plain records, tuples,
    variants, strings and numbers. *)

val load : t -> key:string -> 'a option
(** [None] on missing, truncated, corrupt or key-mismatched files.  A
    missing file is a plain (silent) miss; a corrupt or key-mismatched
    file is {e evicted}: a one-line warning naming the offending path goes
    to stderr, the file is removed, and {!evictions} is incremented — a
    poisoned CI cache shows up in the logs instead of silently re-running
    every cell. *)

val evict : t -> key:string -> reason:string -> unit
(** Remove one entry's file, warn on stderr and count an eviction — for
    callers (the checkpoint store) whose payloads carry their own
    integrity checks beyond what {!load} verifies. *)

val evictions : unit -> int
(** Corrupt-entry evictions and stale-temp sweeps since start (or
    {!reset_evictions}). *)

val reset_evictions : unit -> unit

val store : t -> key:string -> 'a -> unit
(** Atomic and crash-consistent: the value is written to a private temp
    file, fsynced, renamed into place, and the directory entry is
    fsynced — a crash at any point leaves either the old entry, the new
    entry, or a reclaimable temp file, never a torn entry under the real
    name.  (fsync is best-effort: filesystems that refuse it are
    tolerated.)  If the write itself fails the temp file is removed
    before the exception propagates.  The file is the marshalled key
    followed by the marshalled value. *)

(** {2 Entries written and read through a channel}

    {!store} and {!load} are the one-record case of these.  A streamed
    entry, the layout of every [ckpt_] key, puts a run of
    {!output_record}s after the key and closes it with {!output_end}, so
    neither side ever holds the whole body as one string. *)

val store_channel : t -> key:string -> (out_channel -> unit) -> unit
(** Publish an entry whose body [write] puts on the channel after the
    marshalled key, with {!store}'s temp file, fsync and rename.  If
    [write] raises, nothing is published and the exception propagates. *)

val load_channel : t -> key:string -> (in_channel -> 'a) -> 'a option
(** [read] decodes the body once the stored key has matched.  Any
    exception from [read] or the key evicts the entry, as in {!load}. *)

val output_record : out_channel -> 'a -> unit
(** One record of a streamed body. *)

val output_end : out_channel -> unit
(** The end record that closes a streamed body. *)

val input_record : in_channel -> 'a option
(** The next record of a streamed body, or [None] at its end record.
    Raises [End_of_file] at a file cut between two records, [Failure]
    at one cut inside a record or with bytes after the end record. *)

type damage =
  | Unreadable of string  (** the file cannot be opened *)
  | Undecodable of string  (** torn, cut or bit-rotted, with where *)
  | Stored_key of string  (** decodes, under another entry's key *)

val check_entry : file:string -> key:string -> (unit, damage) result
(** The structural check of one entry file, shared by the create-time
    sweep and {!Fsck}: the stored key decodes and equals [key]; a row's
    one value decodes; a [ckpt_] key's records are walked by their
    marshal headers, each must be whole, and the last must be the end
    record, with nothing after it.  Record payloads are not decoded here:
    a checkpoint's are decoded, and its page digests checked, at load. *)

val clear : t -> unit
(** Remove every cache file in the directory. *)

val mkdir_p : string -> unit
(** Exposed for callers that need an output directory with the same
    semantics ([--json] output, tests). *)
