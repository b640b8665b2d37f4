module Json = Sb_util.Json
module Pool = Sb_jobs.Pool
module Cache = Sb_jobs.Cache
module Experiments = Sb_report.Experiments

(* ------------------------------------------------------------------ *)
(* Configuration                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  unix_path : string option;
  tcp_port : int option;
  jobs : int;
  cache_dir : string option;
  deadline : float option;
  window : int;  (* 0 = derive from jobs *)
  max_buffer : int;
  heartbeat : float;  (* expected client liveness interval; <= 0 disables *)
  miss_limit : int;  (* missed intervals before a client is dropped *)
  verbose : bool;
}

let default_config =
  {
    unix_path = None;
    tcp_port = None;
    jobs = 1;
    cache_dir = None;
    deadline = None;
    window = 0;
    max_buffer = 1 lsl 20;
    heartbeat = 10.0;
    miss_limit = 3;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* State                                                                *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_jobs_accepted : int;
  mutable c_jobs_rejected : int;
  mutable c_cells : int;  (* cells accepted across all jobs *)
  mutable c_rows : int;  (* row frames delivered *)
  mutable c_rows_failed : int;  (* delivered rows with a failure status *)
  mutable c_simulated : int;  (* flights that actually ran a simulation *)
  mutable c_cache_hits : int;  (* cells served from memory or disk cache *)
  mutable c_coalesced : int;  (* cells attached to an in-flight computation *)
  mutable c_cancelled : int;  (* cells dropped by cancel/disconnect *)
  mutable c_clients_total : int;
  mutable c_reconnects : int;  (* submissions flagged resume=true *)
  mutable c_heartbeats_missed : int;  (* silent heartbeat intervals seen *)
  mutable c_clients_dropped : int;  (* clients dropped for missed heartbeats *)
}

type waiter = { w_client : int; w_job : string }

(* One in-flight computation, shared by every client that asked for the
   same content address while it was running. *)
type flight = {
  f_spec : Protocol.cell_spec;
  f_token : Pool.token;
  mutable f_waiters : waiter list;  (* origin first *)
}

type job = {
  j_id : string;
  j_pending : Protocol.cell_spec Queue.t;
  mutable j_inflight : int;
  mutable j_rows : int;
  mutable j_failed : int;
}

type client = {
  cl_id : int;
  cl_session : string;  (* server-assigned, announced in the hello frame *)
  cl_fd : Unix.file_descr;
  cl_in : Buffer.t;  (* partial inbound frame *)
  cl_out : Buffer.t;  (* outbound bytes not yet written *)
  mutable cl_out_off : int;
  mutable cl_inflight : int;
  cl_jobs : (string, job) Hashtbl.t;
  mutable cl_order : string list;  (* job ids, submission order *)
  mutable cl_closing : bool;  (* [Bye] queued: flush, then close *)
  mutable cl_last_heard : float;  (* last inbound byte, for liveness *)
  mutable cl_missed : int;  (* silent heartbeat intervals in a row *)
}

type t = {
  cfg : config;
  listeners : Unix.file_descr list;
  sched : (Protocol.cell_spec, Experiments.row) Pool.Sched.t;
  pool_stats : Pool.stats;
  clients : (int, client) Hashtbl.t;
  flights : (string, flight) Hashtbl.t;
  produced : (string, Json.t) Hashtbl.t;  (* key -> cell json (non-failed) *)
  cnt : counters;
  read_buf : Bytes.t;
  mutable next_client : int;
  mutable shutting_down : bool;
  mutable stop_requested : bool;
}

let log t fmt =
  if t.cfg.verbose then Printf.eprintf ("[sb-serve] " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let effective_window t =
  if t.cfg.window > 0 then t.cfg.window else max 2 (2 * t.cfg.jobs)

(* ------------------------------------------------------------------ *)
(* Listeners                                                            *)
(* ------------------------------------------------------------------ *)

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

(* Signals are trapped before the listeners bind, so a supervisor that
   waits for the socket file and then sends SIGTERM can never catch the
   daemon in the default-disposition window. *)
let stop_flag = ref false

let install_signal_handlers () =
  let on_signal _ = stop_flag := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* A spec's engine and bench.  Runs at submit time, so a bad job is
   rejected whole with one error frame, and again inside the pool worker,
   which rebuilds everything from the spec's plain strings. *)
let resolve (sp : Protocol.cell_spec) =
  match Simbench.Engines.of_string sp.sp_arch sp.sp_engine with
  | Error msg -> Error msg
  | Ok engine ->
    Result.map
      (fun bench -> (engine, bench))
      (Sb_workloads.Target.find sp.sp_bench)

(* The pool workers' work function; raises on an invalid spec or a guest
   failure, which the pool reports as a [Failed] outcome. *)
let measure (sp : Protocol.cell_spec) =
  match resolve sp with
  | Error msg -> failwith msg
  | Ok (engine, bench) ->
    Experiments.measure ~label:sp.sp_engine ~arch:sp.sp_arch
      ~repeats:sp.sp_repeats ?iters:sp.sp_iters ~engine bench

let create cfg =
  if cfg.unix_path = None && cfg.tcp_port = None then
    invalid_arg "Serve.create: need a unix socket path or a TCP port";
  if cfg.jobs < 1 then invalid_arg "Serve.create: jobs must be >= 1";
  if cfg.heartbeat > 0.0 && cfg.miss_limit < 1 then
    invalid_arg "Serve.create: miss_limit must be >= 1";
  install_signal_handlers ();
  let listeners =
    (match cfg.unix_path with Some p -> [ listen_unix p ] | None -> [])
    @ (match cfg.tcp_port with Some p -> [ listen_tcp p ] | None -> [])
  in
  let cache = Option.map (fun dir -> Cache.create ~dir) cfg.cache_dir in
  let pool_stats = Pool.stats () in
  (* workers fork lazily, at the first cell, so none exist before the
     listeners answer *)
  let sched =
    Pool.Sched.create ~jobs:cfg.jobs ?cache ~stats:pool_stats
      ?deadline:cfg.deadline ~work:measure ()
  in
  {
    cfg;
    listeners;
    sched;
    pool_stats;
    clients = Hashtbl.create 16;
    flights = Hashtbl.create 64;
    produced = Hashtbl.create 256;
    cnt =
      {
        c_jobs_accepted = 0;
        c_jobs_rejected = 0;
        c_cells = 0;
        c_rows = 0;
        c_rows_failed = 0;
        c_simulated = 0;
        c_cache_hits = 0;
        c_coalesced = 0;
        c_cancelled = 0;
        c_clients_total = 0;
        c_reconnects = 0;
        c_heartbeats_missed = 0;
        c_clients_dropped = 0;
      };
    read_buf = Bytes.create 65536;
    next_client = 0;
    shutting_down = false;
    stop_requested = false;
  }

(* ------------------------------------------------------------------ *)
(* Outbound frames                                                      *)
(* ------------------------------------------------------------------ *)

let out_pending c = Buffer.length c.cl_out - c.cl_out_off

let send t c resp =
  ignore t;
  Buffer.add_string c.cl_out (Protocol.frame (Protocol.response_to_json resp))

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drop_client t c =
  if Hashtbl.mem t.clients c.cl_id then begin
    Hashtbl.remove t.clients c.cl_id;
    (* abandon this client's share of every flight; flights nobody else is
       waiting on are cancelled (queued work vanishes, running workers
       finish and still feed the cache) *)
    let orphaned = ref [] in
    Hashtbl.iter
      (fun key fl ->
        let mine, rest =
          List.partition (fun w -> w.w_client = c.cl_id) fl.f_waiters
        in
        if mine <> [] then begin
          fl.f_waiters <- rest;
          t.cnt.c_cancelled <- t.cnt.c_cancelled + List.length mine;
          if rest = [] then orphaned := key :: !orphaned
        end)
      t.flights;
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.flights key with
        | Some fl -> Pool.cancel fl.f_token
        | None -> ())
      !orphaned;
    Hashtbl.iter
      (fun _ j -> t.cnt.c_cancelled <- t.cnt.c_cancelled + Queue.length j.j_pending)
      c.cl_jobs;
    close_fd c.cl_fd;
    log t "client %d gone (%d still connected)" c.cl_id (Hashtbl.length t.clients)
  end

let flush_client t c =
  let rec go () =
    let len = out_pending c in
    if len > 0 then begin
      let data = Buffer.contents c.cl_out in
      match Unix.write_substring c.cl_fd data c.cl_out_off len with
      | 0 -> ()
      | n ->
        c.cl_out_off <- c.cl_out_off + n;
        if out_pending c = 0 then begin
          Buffer.clear c.cl_out;
          c.cl_out_off <- 0
        end
        else go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        drop_client t c
      | exception Unix.Unix_error _ -> drop_client t c
    end
  in
  go ();
  if c.cl_closing && Hashtbl.mem t.clients c.cl_id && out_pending c = 0 then
    drop_client t c

(* ------------------------------------------------------------------ *)
(* Row delivery                                                         *)
(* ------------------------------------------------------------------ *)

let maybe_finish t c j =
  if Queue.is_empty j.j_pending && j.j_inflight = 0 then begin
    send t c (Protocol.Job_done { id = j.j_id; rows = j.j_rows; failed = j.j_failed });
    Hashtbl.remove c.cl_jobs j.j_id;
    c.cl_order <- List.filter (fun id -> id <> j.j_id) c.cl_order
  end

let deliver t w ~key ~cached ~json ~failed =
  match Hashtbl.find_opt t.clients w.w_client with
  | None -> ()
  | Some c -> (
    match Hashtbl.find_opt c.cl_jobs w.w_job with
    | None -> ()
    | Some j ->
      j.j_inflight <- j.j_inflight - 1;
      c.cl_inflight <- c.cl_inflight - 1;
      if failed then j.j_failed <- j.j_failed + 1 else j.j_rows <- j.j_rows + 1;
      t.cnt.c_rows <- t.cnt.c_rows + 1;
      if failed then t.cnt.c_rows_failed <- t.cnt.c_rows_failed + 1;
      send t c (Protocol.Row { id = j.j_id; key; cached; cell = json });
      maybe_finish t c j)

let failure_row (sp : Protocol.cell_spec) f =
  Experiments.failure_row
    ~arch:(Simbench.Engines.arch_name sp.sp_arch)
    ~label:sp.sp_engine ~cell:sp.sp_bench f

let on_outcome t key ~live outcome =
  match Hashtbl.find_opt t.flights key with
  | None -> ()
  | Some fl ->
    Hashtbl.remove t.flights key;
    let cached = not !live in
    if cached then t.cnt.c_cache_hits <- t.cnt.c_cache_hits + 1
    else t.cnt.c_simulated <- t.cnt.c_simulated + 1;
    let row, failed =
      match outcome with
      | Pool.Done r -> (r, false)
      | Pool.Retried (r, n) -> (Experiments.mark_retried n r, false)
      | Pool.Failed f -> (failure_row fl.f_spec f, true)
    in
    let json = Experiments.row_to_json row in
    if not failed then Hashtbl.replace t.produced key json;
    List.iteri
      (fun i w -> deliver t w ~key ~cached:(cached || i > 0) ~json ~failed)
      fl.f_waiters

(* ------------------------------------------------------------------ *)
(* Dispatch and backpressure                                            *)
(* ------------------------------------------------------------------ *)

let dispatch_cell t c j sp =
  let key = Protocol.spec_key sp in
  j.j_inflight <- j.j_inflight + 1;
  c.cl_inflight <- c.cl_inflight + 1;
  let w = { w_client = c.cl_id; w_job = j.j_id } in
  match Hashtbl.find_opt t.produced key with
  | Some json ->
    t.cnt.c_cache_hits <- t.cnt.c_cache_hits + 1;
    deliver t w ~key ~cached:true ~json ~failed:false
  | None -> (
    match Hashtbl.find_opt t.flights key with
    | Some fl ->
      t.cnt.c_coalesced <- t.cnt.c_coalesced + 1;
      fl.f_waiters <- fl.f_waiters @ [ w ]
    | None ->
      let fl = { f_spec = sp; f_token = Pool.token (); f_waiters = [ w ] } in
      Hashtbl.replace t.flights key fl;
      (* a persistent-cache hit fires the callback inside [submit], before
         [live] flips — that is how cached rows are told apart from runs *)
      let live = ref false in
      Pool.Sched.submit t.sched ~cancel:fl.f_token ~key
        ~label:(Protocol.spec_label sp) sp
        ~k:(fun o -> on_outcome t key ~live o);
      live := true)

let next_pending c =
  let rec go = function
    | [] -> None
    | id :: rest -> (
      match Hashtbl.find_opt c.cl_jobs id with
      | Some j when not (Queue.is_empty j.j_pending) -> Some j
      | _ -> go rest)
  in
  go c.cl_order

let feed_client t c =
  let window = effective_window t in
  let continue = ref true in
  while !continue do
    continue := false;
    if
      (not t.shutting_down) && (not c.cl_closing)
      && c.cl_inflight < window
      && out_pending c < t.cfg.max_buffer
    then
      match next_pending c with
      | Some j ->
        dispatch_cell t c j (Queue.pop j.j_pending);
        continue := true
      | None -> ()
  done

let feed t =
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
  List.iter (fun c -> feed_client t c) cs

(* ------------------------------------------------------------------ *)
(* Status and dump                                                      *)
(* ------------------------------------------------------------------ *)

let status_json t =
  let cnt = t.cnt in
  let ps = t.pool_stats in
  Json.Obj
    [
      ("schema", Json.String Protocol.schema);
      ("jobs", Json.Int t.cfg.jobs);
      ("window", Json.Int (effective_window t));
      ("queue_depth", Json.Int (Pool.Sched.queued t.sched));
      ("active_workers", Json.Int (Pool.Sched.active t.sched));
      ("clients", Json.Int (Hashtbl.length t.clients));
      ("flights", Json.Int (Hashtbl.length t.flights));
      ("rows_known", Json.Int (Hashtbl.length t.produced));
      ( "counters",
        Json.Obj
          [
            ("jobs_accepted", Json.Int cnt.c_jobs_accepted);
            ("jobs_rejected", Json.Int cnt.c_jobs_rejected);
            ("cells_submitted", Json.Int cnt.c_cells);
            ("rows_delivered", Json.Int cnt.c_rows);
            ("rows_failed", Json.Int cnt.c_rows_failed);
            ("simulated", Json.Int cnt.c_simulated);
            ("cache_hits", Json.Int cnt.c_cache_hits);
            ("coalesced", Json.Int cnt.c_coalesced);
            ("deduplicated", Json.Int (cnt.c_cache_hits + cnt.c_coalesced));
            ("cancelled_cells", Json.Int cnt.c_cancelled);
            ("clients_total", Json.Int cnt.c_clients_total);
            ("reconnects", Json.Int cnt.c_reconnects);
            ("heartbeats_missed", Json.Int cnt.c_heartbeats_missed);
            ("clients_dropped", Json.Int cnt.c_clients_dropped);
            ("fsck_evictions", Json.Int (Cache.evictions ()));
          ] );
      ( "pool",
        Json.Obj
          [
            ("executed", Json.Int ps.Pool.executed);
            ("forked", Json.Int ps.Pool.forked);
            ("cache_hits", Json.Int ps.Pool.cache_hits);
            ("failed", Json.Int ps.Pool.failed);
            ("retried", Json.Int ps.Pool.retried);
            ("timed_out", Json.Int ps.Pool.timed_out);
            ("quarantined", Json.Int ps.Pool.quarantined);
            ("cancelled", Json.Int ps.Pool.cancelled);
          ] );
      ( "cache",
        match t.cfg.cache_dir with
        | None -> Json.Null
        | Some dir -> Json.Obj [ ("dir", Json.String dir) ] );
      ( "per_client",
        Json.List
          (List.sort compare
             (Hashtbl.fold
                (fun _ c acc ->
                  Json.Obj
                    [
                      ("id", Json.Int c.cl_id);
                      ("session", Json.String c.cl_session);
                      ("inflight", Json.Int c.cl_inflight);
                      ("jobs", Json.Int (Hashtbl.length c.cl_jobs));
                      ("buffered_bytes", Json.Int (out_pending c));
                      ("heartbeats_missed", Json.Int c.cl_missed);
                    ]
                  :: acc)
                t.clients [])) );
    ]

let dump_cells t =
  Hashtbl.fold (fun _ json acc -> json :: acc) t.produced []
  |> List.map (fun j -> (Json.to_string j, j))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* ------------------------------------------------------------------ *)
(* Shutdown                                                             *)
(* ------------------------------------------------------------------ *)

let begin_shutdown t ~reason =
  if not t.shutting_down then begin
    t.shutting_down <- true;
    log t "shutting down: %s" reason;
    (* queued flights are abandoned (their waiters get cancelled rows);
       running workers finish and still populate the cache *)
    Hashtbl.iter (fun _ fl -> Pool.cancel fl.f_token) t.flights;
    (* window-held cells never reached the scheduler, but their clients
       still get a cancelled row per cell — every submitted cell is
       answered, so a draining shutdown never strands a job *)
    Hashtbl.iter
      (fun _ c ->
        Hashtbl.iter
          (fun _ j ->
            let pending = Queue.length j.j_pending in
            t.cnt.c_cancelled <- t.cnt.c_cancelled + pending;
            Queue.iter
              (fun sp ->
                let row =
                  failure_row sp
                    {
                      Pool.fl_label = Protocol.spec_label sp;
                      fl_kind = Pool.Cancelled;
                      fl_attempts = 0;
                      fl_detail = reason;
                    }
                in
                j.j_failed <- j.j_failed + 1;
                t.cnt.c_rows <- t.cnt.c_rows + 1;
                t.cnt.c_rows_failed <- t.cnt.c_rows_failed + 1;
                send t c
                  (Protocol.Row
                     {
                       id = j.j_id;
                       key = Protocol.spec_key sp;
                       cached = false;
                       cell = Experiments.row_to_json row;
                     }))
              j.j_pending;
            Queue.clear j.j_pending)
          c.cl_jobs;
        (* with the queues gone, jobs whose flights were all delivered
           can finish right away *)
        List.iter
          (fun id ->
            match Hashtbl.find_opt c.cl_jobs id with
            | Some j -> maybe_finish t c j
            | None -> ())
          c.cl_order)
      t.clients
  end

let request_stop t = t.stop_requested <- true
let shutting_down t = t.shutting_down
let idle t = Pool.Sched.idle t.sched
let client_count t = Hashtbl.length t.clients

let say_bye t ~reason =
  Hashtbl.iter
    (fun _ c ->
      if not c.cl_closing then begin
        (* flush [Job_done]s first, then the farewell *)
        send t c (Protocol.Bye { reason });
        c.cl_closing <- true
      end)
    t.clients

let close t =
  Pool.Sched.close t.sched;
  Hashtbl.iter (fun _ c -> close_fd c.cl_fd) t.clients;
  Hashtbl.reset t.clients;
  List.iter close_fd t.listeners;
  match t.cfg.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Inbound frames                                                       *)
(* ------------------------------------------------------------------ *)

let handle_submit t c ~id ~cells ~resume =
  if resume then begin
    t.cnt.c_reconnects <- t.cnt.c_reconnects + 1;
    log t "client %d (%s) resumed job %s after a reconnect" c.cl_id
      c.cl_session id
  end;
  if t.shutting_down then
    send t c
      (Protocol.Error_msg { id = Some id; message = "server is shutting down" })
  else if Hashtbl.mem c.cl_jobs id then
    send t c
      (Protocol.Error_msg
         { id = Some id; message = Printf.sprintf "duplicate job id %S" id })
  else begin
    (* canonicalise spellings so alias submissions share flights and
       cache entries, then validate the whole job before accepting any of
       it *)
    let cells = List.map Protocol.canonical cells in
    let bad =
      List.find_map
        (fun sp ->
          match resolve sp with
          | Ok _ -> None
          | Error msg ->
            Some (Printf.sprintf "%s: %s" (Protocol.spec_label sp) msg))
        cells
    in
    match bad with
    | Some message ->
      t.cnt.c_jobs_rejected <- t.cnt.c_jobs_rejected + 1;
      send t c (Protocol.Error_msg { id = Some id; message })
    | None ->
      let j =
        {
          j_id = id;
          j_pending = Queue.create ();
          j_inflight = 0;
          j_rows = 0;
          j_failed = 0;
        }
      in
      List.iter (fun sp -> Queue.push sp j.j_pending) cells;
      Hashtbl.replace c.cl_jobs id j;
      c.cl_order <- c.cl_order @ [ id ];
      t.cnt.c_jobs_accepted <- t.cnt.c_jobs_accepted + 1;
      t.cnt.c_cells <- t.cnt.c_cells + List.length cells;
      log t "client %d job %s: %d cells" c.cl_id id (List.length cells);
      send t c (Protocol.Ack { id; cells = List.length cells })
  end

let handle_cancel t c ~id =
  match Hashtbl.find_opt c.cl_jobs id with
  | None ->
    send t c
      (Protocol.Error_msg
         { id = Some id; message = Printf.sprintf "unknown job id %S" id })
  | Some j ->
    let dropped = ref (Queue.length j.j_pending) in
    Queue.clear j.j_pending;
    let orphaned = ref [] in
    Hashtbl.iter
      (fun key fl ->
        let mine, rest =
          List.partition
            (fun w -> w.w_client = c.cl_id && w.w_job = id)
            fl.f_waiters
        in
        if mine <> [] then begin
          fl.f_waiters <- rest;
          dropped := !dropped + List.length mine;
          c.cl_inflight <- c.cl_inflight - List.length mine;
          j.j_inflight <- j.j_inflight - List.length mine;
          if rest = [] then orphaned := key :: !orphaned
        end)
      t.flights;
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.flights key with
        | Some fl -> Pool.cancel fl.f_token
        | None -> ())
      !orphaned;
    t.cnt.c_cancelled <- t.cnt.c_cancelled + !dropped;
    Hashtbl.remove c.cl_jobs id;
    c.cl_order <- List.filter (fun jid -> jid <> id) c.cl_order;
    log t "client %d cancelled job %s (%d cells dropped)" c.cl_id id !dropped;
    send t c (Protocol.Cancelled { id; dropped = !dropped })

let handle_line t c line =
  match Protocol.request_of_line line with
  | Error message -> send t c (Protocol.Error_msg { id = None; message })
  | Ok (Protocol.Submit { id; cells; resume }) ->
    handle_submit t c ~id ~cells ~resume
  | Ok (Protocol.Cancel { id }) -> handle_cancel t c ~id
  | Ok (Protocol.Ping { seq }) -> send t c (Protocol.Pong { seq })
  | Ok Protocol.Status -> send t c (Protocol.Status_report (status_json t))
  | Ok Protocol.Dump ->
    send t c (Protocol.Run_dump { source = "serve"; cells = dump_cells t })
  | Ok Protocol.Shutdown -> begin_shutdown t ~reason:"shutdown requested"

(* The longest inbound frame, newline excluded.  A client whose frame
   grows past it gets an error frame and is dropped, so one peer cannot
   grow the daemon's memory without bound.  A submit takes about 95 bytes
   per cell, so the cap admits jobs of some 44,000 cells. *)
let max_frame = 4 * 1024 * 1024

let reject_frame t c =
  Buffer.reset c.cl_in;
  log t "client %d (%s) dropped: frame longer than %d bytes" c.cl_id c.cl_session
    max_frame;
  send t c
    (Protocol.Error_msg
       {
         id = None;
         message = Printf.sprintf "frame longer than %d bytes without a newline" max_frame;
       });
  (* flushed, then closed: see [flush_client] *)
  c.cl_closing <- true

let handle_frame t c line =
  let n = String.length line in
  let line = if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line in
  if line <> "" then handle_line t c line

(* Split the [n] bytes just read at their newlines.  Only a frame's
   unterminated part waits in [cl_in], so each inbound byte is copied a
   bounded number of times however many reads a frame takes. *)
let process_input t c buf n =
  let rec newline i = if i >= n || Bytes.get buf i = '\n' then i else newline (i + 1) in
  let rec frames start =
    if start < n && not c.cl_closing then begin
      let nl = newline start in
      if Buffer.length c.cl_in + (nl - start) > max_frame then reject_frame t c
      else if nl = n then Buffer.add_subbytes c.cl_in buf start (n - start)
      else begin
        let line =
          if Buffer.length c.cl_in = 0 then Bytes.sub_string buf start (nl - start)
          else begin
            Buffer.add_subbytes c.cl_in buf start (nl - start);
            let line = Buffer.contents c.cl_in in
            Buffer.reset c.cl_in;
            line
          end
        in
        handle_frame t c line;
        frames (nl + 1)
      end
    end
  in
  frames 0

let read_client t c =
  match Unix.read c.cl_fd t.read_buf 0 (Bytes.length t.read_buf) with
  | 0 -> drop_client t c
  | n ->
    c.cl_last_heard <- Unix.gettimeofday ();
    c.cl_missed <- 0;
    (* a closing client's requests are not answered *)
    if not c.cl_closing then process_input t c t.read_buf n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_client t c

(* Liveness: any inbound byte counts as a heartbeat.  A client silent for a
   whole interval accrues one miss; [miss_limit] misses in a row and it is
   dropped — its queued cells are cancelled exactly as on a disconnect, so
   a wedged client cannot pin flights (or their backpressure window)
   forever. *)
let check_heartbeats t =
  if t.cfg.heartbeat > 0.0 then begin
    let now = Unix.gettimeofday () in
    let doomed = ref [] in
    Hashtbl.iter
      (fun _ c ->
        if not c.cl_closing then begin
          let silent = now -. c.cl_last_heard in
          if silent > t.cfg.heartbeat *. float_of_int (c.cl_missed + 1) then begin
            c.cl_missed <- c.cl_missed + 1;
            t.cnt.c_heartbeats_missed <- t.cnt.c_heartbeats_missed + 1;
            log t "client %d (%s) missed heartbeat %d/%d" c.cl_id c.cl_session
              c.cl_missed t.cfg.miss_limit;
            if c.cl_missed >= t.cfg.miss_limit then doomed := c :: !doomed
          end
        end)
      t.clients;
    List.iter
      (fun c ->
        t.cnt.c_clients_dropped <- t.cnt.c_clients_dropped + 1;
        log t "client %d (%s) dropped: %d heartbeats missed" c.cl_id
          c.cl_session c.cl_missed;
        drop_client t c)
      !doomed
  end

let accept_clients t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _ ->
      Unix.set_nonblock fd;
      let id = t.next_client in
      t.next_client <- id + 1;
      t.cnt.c_clients_total <- t.cnt.c_clients_total + 1;
      let session = Printf.sprintf "s%d-%d" (Unix.getpid ()) id in
      let c =
        {
          cl_id = id;
          cl_session = session;
          cl_fd = fd;
          cl_in = Buffer.create 256;
          cl_out = Buffer.create 1024;
          cl_out_off = 0;
          cl_inflight = 0;
          cl_jobs = Hashtbl.create 4;
          cl_order = [];
          cl_closing = false;
          cl_last_heard = Unix.gettimeofday ();
          cl_missed = 0;
        }
      in
      Hashtbl.replace t.clients id c;
      (* the session handshake: every connection opens with the server's
         hello naming the assigned session and the heartbeat contract *)
      send t c
        (Protocol.Hello
           {
             session;
             heartbeat = t.cfg.heartbeat;
             miss_limit = t.cfg.miss_limit;
           });
      log t "client %d connected (session %s)" id session
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* The event loop                                                       *)
(* ------------------------------------------------------------------ *)

let step ?(timeout = 0.2) t =
  let sched_fds = Pool.Sched.fds t.sched in
  let listeners = if t.shutting_down then [] else t.listeners in
  let client_fds = Hashtbl.fold (fun _ c acc -> c.cl_fd :: acc) t.clients [] in
  let reads = listeners @ client_fds @ sched_fds in
  let writes =
    Hashtbl.fold
      (fun _ c acc -> if out_pending c > 0 then c.cl_fd :: acc else acc)
      t.clients []
  in
  let st = Pool.Sched.timeout t.sched in
  let tmo = if st >= 0.0 then min st timeout else timeout in
  let readable, writable, _ =
    try Unix.select reads writes [] tmo
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun fd -> if List.mem fd t.listeners then accept_clients t fd)
    readable;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
  List.iter
    (fun c ->
      if List.mem c.cl_fd readable && Hashtbl.mem t.clients c.cl_id then
        read_client t c)
    cs;
  (* worker pipes: pump ignores fds it does not own, and also promotes due
     retries / kills deadline overruns even with nothing readable *)
  Pool.Sched.pump t.sched ~readable;
  check_heartbeats t;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
  List.iter
    (fun c ->
      if
        Hashtbl.mem t.clients c.cl_id
        && (List.mem c.cl_fd writable || out_pending c > 0)
      then flush_client t c)
    cs;
  feed t;
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.clients [] in
  List.iter
    (fun c ->
      if Hashtbl.mem t.clients c.cl_id && out_pending c > 0 then
        flush_client t c)
    cs

let all_flushed t =
  Hashtbl.fold (fun _ c acc -> acc && out_pending c = 0) t.clients true

let run t =
  (match t.cfg.unix_path with
  | Some p -> log t "listening on unix:%s (%d jobs)" p t.cfg.jobs
  | None -> ());
  (match t.cfg.tcp_port with
  | Some p -> log t "listening on tcp:127.0.0.1:%d (%d jobs)" p t.cfg.jobs
  | None -> ());
  let bye_at = ref None in
  let finished = ref false in
  while not !finished do
    if !stop_flag then t.stop_requested <- true;
    if t.stop_requested && not t.shutting_down then
      begin_shutdown t ~reason:"signal";
    if t.shutting_down && idle t && !bye_at = None then begin
      say_bye t ~reason:"server stopping";
      bye_at := Some (Unix.gettimeofday ())
    end;
    (match !bye_at with
    | Some since ->
      if
        all_flushed t || client_count t = 0
        || Unix.gettimeofday () -. since > 5.0
      then finished := true
      else step ~timeout:0.1 t
    | None -> step t)
  done;
  close t;
  log t "bye"
