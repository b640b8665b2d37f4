(** [Unix.fork]-based worker pool for independent experiment cells, with
    deadlines, bounded retries, failure quarantine and cancellation.

    Each task is an (optionally cache-keyed) thunk.  With [jobs <= 1] and
    no deadline the thunks run sequentially in-process — byte-for-byte the
    pre-pool code path, including exception propagation order.  Otherwise
    up to [jobs] persistent workers are forked at the first dispatch that
    finds none free, and each runs one uncached attempt after another:
    the parent writes it a request over a pipe and the worker marshals
    back its result (or the exception message).  Results come back in
    task order regardless of completion order.

    A worker outlives its cells, and with them whatever its process keeps
    between runs (the harness's pooled guest RAM, the engines' recycled
    tables).  It holds no descriptor of its parent but stdio and its own
    two pipe ends, so sockets the parent closes reach their peers, and it
    exits when its request pipe closes, so it never outlives the process
    that forked it.

    Requests and task results must be marshallable (no closures, no
    custom blocks): the harness ships plain records of names, timings and
    counter values.

    Failure is data, not an exception: a worker that dies without
    reporting — killed, [Unix._exit] inside the thunk, a crash in the
    runtime — yields [Failed] with the wait status; a worker that
    overruns [?deadline] is SIGKILLed and yields [Failed] with
    [fl_kind = Timed_out].  A worker that died, overran or reported a
    failed attempt is retired and the next dispatch forks a fresh one.
    The pool never hangs and never poisons the cache.

    Long-running callers (the [Sb_serve] daemon) that need to submit work
    incrementally and multiplex worker pipes with their own sockets use
    {!Sched} directly; {!run} is the batch wrapper over it. *)

type 'a task

val task : ?key:string -> label:string -> (unit -> 'a) -> 'a task
(** [key], when given, is the {!Cache} key for the result (derive it with
    {!Cache.fingerprint}); tasks without a key are never cached (engines
    built from closures cannot be fingerprinted robustly). *)

val label : _ task -> string

type fail_kind =
  | Crashed  (** the thunk raised, or the worker died without reporting *)
  | Timed_out  (** the worker overran the deadline and was killed *)
  | Quarantined
      (** skipped without running: the task's identity has accumulated
          {!quarantine_after} failures in this process *)
  | Cancelled
      (** abandoned while still queued: its {!token} was cancelled before
          a worker picked it up *)

type failure = {
  fl_label : string;  (** the task's label *)
  fl_kind : fail_kind;
  fl_attempts : int;  (** attempts actually run (0 when quarantined/cancelled) *)
  fl_detail : string;  (** human-readable cause *)
}

type 'a outcome =
  | Done of 'a
  | Retried of 'a * int
      (** succeeded after that many failed attempts — the value is good,
          but the flakiness is worth surfacing *)
  | Failed of failure

val failure_message : failure -> string
(** ["label: detail"], for log lines and legacy call sites. *)

(** {2 Cancellation}

    A token is a shared flag attached to one or more submitted tasks.
    Cancelling it abandons every attached task that has not started yet
    (queued, or waiting out a retry backoff) with
    [Failed {fl_kind = Cancelled}]; attempts already running in a worker
    are {e not} killed — they complete, report, and still populate the
    cache.  This is the primitive behind [simbench client --cancel] and
    the serve daemon's graceful drain: queued work disappears instantly,
    healthy workers are never SIGKILLed. *)

type token

val token : unit -> token

val cancel : token -> unit

val cancelled : token -> bool

type stats = {
  mutable executed : int;
      (** attempts actually run (in-process or forked); retries count *)
  mutable forked : int;
      (** workers started: at most [jobs] per {!run} call or {!Sched},
          plus one per retired worker replaced ([= 0] on the sequential
          path) *)
  mutable cache_hits : int;
  mutable failed : int;  (** tasks whose final outcome is [Failed] *)
  mutable retried : int;  (** extra attempts scheduled after a crash *)
  mutable timed_out : int;  (** workers killed at the deadline *)
  mutable quarantined : int;  (** tasks skipped by the quarantine *)
  mutable cancelled : int;  (** tasks abandoned by a cancelled token *)
}

val stats : unit -> stats

val quarantine_after : int ref
(** Failed attempts a task identity (cache key, else label) may
    accumulate process-wide before the pool stops running it and returns
    [Failed {fl_kind = Quarantined}] instantly.  Default 3. *)

val reset_quarantine : unit -> unit
(** Forget all recorded failures (tests; or to deliberately re-run cells
    that were quarantined earlier in the process). *)

(** Incremental scheduler over the same worker machinery.

    A scheduler runs one work function, fixed at {!Sched.create}, over
    plain-data requests: the workers fork from the scheduler's process
    and inherit the function, so only a request crosses a pipe.  Designed
    to be driven by an external [Unix.select] loop: {!fds} are the live
    workers' result pipes, {!timeout} is how long the loop may sleep
    before a deadline or retry wake-up is due, and {!pump} must be called
    with whatever subset of those fds became readable (fds the scheduler
    does not own are ignored, so the caller can pass its whole readable
    set).  {!submit} resolves quarantine and the cache synchronously — the
    callback can fire before [submit] returns — and otherwise queues the
    request, dispatching it at once if a worker is idle or one more may
    be forked.  Callbacks fire in completion order, not submission order.
    The workers live until {!close}. *)
module Sched : sig
  type ('r, 'a) t

  val create :
    ?jobs:int ->
    ?cache:Cache.t ->
    ?stats:stats ->
    ?deadline:float ->
    ?retries:int ->
    ?backoff:float ->
    work:('r -> 'a) ->
    unit ->
    ('r, 'a) t
  (** Same parameter semantics as {!run}; [work] is what a worker applies
      to each request.  Forks nothing.  Raises [Invalid_argument] on a
      non-positive deadline or negative retries/backoff. *)

  val submit :
    ('r, 'a) t ->
    ?cancel:token ->
    ?key:string ->
    label:string ->
    'r ->
    k:('a outcome -> unit) ->
    unit
  (** Run [work] on the request in a worker.  [key] and [label] mean what
      they mean for {!task}.  [k] is called exactly once with the outcome —
      possibly synchronously (cache hit, quarantine, already-cancelled
      token).  A request written to a worker that died while idle goes
      back to the queue without counting an attempt. *)

  val fds : _ t -> Unix.file_descr list
  (** Read-ends of the live workers' result pipes, for the caller's select
      set.  An idle worker's fd becomes readable only when it dies. *)

  val timeout : _ t -> float
  (** Seconds until the earliest internal wake-up (attempt deadline or
      retry backoff), or [-1.0] when there is none (sleep as long as you
      like). *)

  val pump : ('r, 'a) t -> readable:Unix.file_descr list -> unit
  (** Process events: read readable result pipes (firing callbacks as
      results complete, and giving a freed worker its next queued request
      before the result is written to the cache), retire dead workers,
      kill deadline overruns, promote due retries, drop cancelled queue
      entries, and dispatch queued requests to idle or new workers. *)

  val queued : _ t -> int
  (** Requests waiting for a worker (including retry backoffs). *)

  val active : _ t -> int
  (** Workers running an attempt. *)

  val idle : _ t -> bool
  (** No queued requests, no waiting retries, no running attempts. *)

  val drain : ('r, 'a) t -> unit
  (** Run a private select loop until {!idle} — the batch mode.  Queued
      requests whose token is cancelled mid-drain are dropped; running
      attempts always complete. *)

  val close : _ t -> unit
  (** SIGKILL and reap every worker.  An attempt still running is
      abandoned and its callback never fires; call after {!drain} (or
      once {!idle}) to lose nothing. *)
end

val run :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?stats:stats ->
  ?deadline:float ->
  ?retries:int ->
  ?backoff:float ->
  ?cancel:token ->
  'a task list ->
  'a outcome list
(** Results are positional: [List.nth (run ts) i] belongs to
    [List.nth ts i].

    The workers live for this call: {!Sched.close} stops them before it
    returns.

    [deadline] is a per-attempt wall-clock budget in seconds: an attempt
    still running after that long is SIGKILLed with its worker and
    reported [Timed_out].  Passing a deadline forces the forked path even
    at [jobs = 1], because only a child process can be killed.  [retries]
    (default 0) re-runs an attempt that {e crashed} up to that many extra
    times, sleeping [backoff * 2^(attempt-1)] seconds first (default
    backoff 0.05); timeouts are never retried — a second attempt would
    burn another whole deadline for a result the budget already
    rejected.  A success on attempt [> 1] is reported as [Retried].
    [cancel], when provided and cancelled (by a task thunk on the
    sequential path, or from the callback of another scheduler sharing
    the token), abandons the not-yet-started remainder as [Cancelled].
    Raises [Invalid_argument] on a non-positive deadline or negative
    retries/backoff. *)
