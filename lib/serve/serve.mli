(** The benchmark service: a persistent daemon that accepts
    {!Protocol}-framed job submissions over a Unix and/or loopback TCP
    socket, shards their cells across one {!Sb_jobs.Pool.Sched} of forked
    workers, and streams rows back as they land.

    Results are content-addressed by {!Protocol.spec_key}: a cell already
    produced in this process (or present in the persistent
    {!Sb_jobs.Cache} under [cache_dir]) is answered without running a
    simulation, and a cell currently being computed for one client is
    {e coalesced} — every other client asking for it is attached as a
    waiter and receives the same row when it lands.  A million identical
    requests cost one simulation.

    Backpressure is per client: at most [window] cells of a client are in
    flight at once, and no further cells are dispatched while more than
    [max_buffer] bytes of results are waiting in its socket buffer — a
    slow reader throttles only itself.

    Shutdown (SIGTERM, SIGINT, or a [shutdown] frame) is graceful: queued
    cells are abandoned through their {!Sb_jobs.Pool.token}s (clients get
    ["cancelled"] rows and their [done] frames), running workers complete
    and still populate the cache, then every client gets a [bye] frame and
    the sockets close.  A running attempt is never SIGKILLed; the workers,
    idle by then, are stopped with the sockets.

    An inbound frame longer than 4 MiB without a newline gets an error
    frame, and its client is dropped.

    The daemon is single-threaded: one [Unix.select] loop multiplexes
    listener sockets, client sockets and worker pipes.  Tests drive the
    same loop one {!step} at a time, in-process. *)

type config = {
  unix_path : string option;  (** Unix-domain listener socket path *)
  tcp_port : int option;  (** loopback TCP listener port *)
  jobs : int;
      (** pool workers, forked at the first cells that find none free and
          kept until {!close} *)
  cache_dir : string option;  (** persistent shared result cache *)
  deadline : float option;  (** per-cell wall-clock budget, seconds *)
  window : int;  (** max in-flight cells per client; 0 = [2 * jobs] *)
  max_buffer : int;  (** per-client outbound watermark, bytes *)
  heartbeat : float;
      (** client-liveness interval announced in the hello frame: any
          inbound byte counts as a heartbeat, a client silent for one
          whole interval accrues a miss; [<= 0] disables dropping *)
  miss_limit : int;
      (** consecutive missed intervals before a silent client is dropped
          (its queued cells cancelled exactly as on a disconnect) *)
  verbose : bool;  (** log connections/jobs to stderr *)
}

val default_config : config
(** No listeners (callers must set one), [jobs = 1], no cache, no
    deadline, derived window, 1 MiB watermark, 10 s heartbeat with 3
    misses allowed, quiet. *)

type t

val create : config -> t
(** Binds the listeners (replacing a stale Unix socket file) and creates
    the cache directory if configured.  Raises [Invalid_argument] when
    neither listener is configured or [jobs < 1]. *)

val run : t -> unit
(** The daemon main loop: installs SIGTERM/SIGINT handlers (both request
    a graceful shutdown; SIGPIPE is ignored), serves until drained after
    a stop request, then closes and unlinks the sockets.  Returns
    normally — the CLI exits 0. *)

(** {2 Stepwise driving (tests)} *)

val step : ?timeout:float -> t -> unit
(** One event-loop iteration: select (at most [timeout] seconds, default
    0.2), accept, read client frames, pump the scheduler, flush, refill
    per-client in-flight windows. *)

val begin_shutdown : t -> reason:string -> unit
(** What a [shutdown] frame or signal triggers: stop accepting, abandon
    queued cells, let running workers drain. *)

val request_stop : t -> unit
(** What the signal handlers call. *)

val shutting_down : t -> bool

val idle : t -> bool
(** The worker scheduler has nothing queued and nothing running. *)

val client_count : t -> int

val status_json : t -> Sb_util.Json.t
(** The [status] response payload: queue depth, live clients/flights, and
    the counters — including ["deduplicated"] (cache hits + coalesced
    cells), which the CI soak gate asserts is positive. *)

val close : t -> unit
(** Stop the pool workers, close every socket and unlink the Unix
    listener path.  [run] calls this itself; stepwise users must. *)
