(* A unit of work: [req] is a thunk for {!run}, plain data for {!Sched}. *)
type 'r job = { key : string option; label : string; req : 'r }

type 'a task = (unit -> 'a) job

let task ?key ~label run = { key; label; req = run }

let label t = t.label

type fail_kind = Crashed | Timed_out | Quarantined | Cancelled

type failure = {
  fl_label : string;
  fl_kind : fail_kind;
  fl_attempts : int;
  fl_detail : string;
}

type 'a outcome = Done of 'a | Retried of 'a * int | Failed of failure

let failure_message f = f.fl_label ^ ": " ^ f.fl_detail

type stats = {
  mutable executed : int;
  mutable forked : int;
  mutable cache_hits : int;
  mutable failed : int;
  mutable retried : int;
  mutable timed_out : int;
  mutable quarantined : int;
  mutable cancelled : int;
}

let stats () =
  {
    executed = 0;
    forked = 0;
    cache_hits = 0;
    failed = 0;
    retried = 0;
    timed_out = 0;
    quarantined = 0;
    cancelled = 0;
  }

(* ------------------------------------------------------------------ *)
(* Cancellation tokens: a shared flag that abandons queued-but-unstarted *)
(* work.  Cancelling never SIGKILLs a healthy worker: attempts already   *)
(* running complete normally (and still populate the cache); entries     *)
(* still waiting in the queue — or in the retry-backoff list — are       *)
(* dropped with [Failed {fl_kind = Cancelled}] the next time the         *)
(* scheduler touches them.                                               *)
(* ------------------------------------------------------------------ *)

type token = { mutable tk_cancelled : bool }

let token () = { tk_cancelled = false }

let cancel tok = tok.tk_cancelled <- true

let cancelled tok = tok.tk_cancelled

let cancelled_failure t =
  {
    fl_label = t.label;
    fl_kind = Cancelled;
    fl_attempts = 0;
    fl_detail = "cancelled before running";
  }

(* ------------------------------------------------------------------ *)
(* Quarantine registry: a process-global count of failed attempts per   *)
(* task identity.  A cell that keeps crashing (bad fingerprint inputs,  *)
(* a guest program that aborts the worker) stops being retried across   *)
(* runs in the same process: once it accumulates [quarantine_after]     *)
(* failures it is skipped instantly with [Failed {fl_kind =             *)
(* Quarantined}], so one poisoned cell cannot serialise a whole sweep   *)
(* behind deadline * retries stalls.                                    *)
(* ------------------------------------------------------------------ *)

let quarantine_after = ref 3

let quarantine_tbl : (string, int) Hashtbl.t = Hashtbl.create 16

let identity t =
  match t.key with Some k -> "key:" ^ k | None -> "label:" ^ t.label

let record_failure t =
  let id = identity t in
  let n = match Hashtbl.find_opt quarantine_tbl id with Some n -> n | None -> 0 in
  Hashtbl.replace quarantine_tbl id (n + 1)

let is_quarantined t =
  match Hashtbl.find_opt quarantine_tbl (identity t) with
  | Some n -> n >= !quarantine_after
  | None -> false

let reset_quarantine () = Hashtbl.reset quarantine_tbl

let quarantine_failure t =
  {
    fl_label = t.label;
    fl_kind = Quarantined;
    fl_attempts = 0;
    fl_detail =
      Printf.sprintf "quarantined after %d repeated failures; skipped"
        !quarantine_after;
  }

let capture f x =
  match f x with
  | v -> Ok v
  | exception e -> Error (Printexc.to_string e)

let cache_load cache t =
  match (cache, t.key) with
  | Some c, Some key -> Cache.load c ~key
  | _ -> None

let cache_store cache t v =
  match (cache, t.key) with
  | Some c, Some key -> Cache.store c ~key v
  | _ -> ()

let backoff_delay ~backoff attempt =
  backoff *. (2. ** float_of_int (attempt - 1))

let rec restart_on_intr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_intr f

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "was killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "was stopped by signal %d" n

(* ------------------------------------------------------------------ *)
(* Sequential path: -j 1 runs every thunk in-process, in order — the    *)
(* exact code path the pre-pool harness took (retries happen inline).   *)
(* ------------------------------------------------------------------ *)

let run_seq ?cancel ~cache ~stats ~retries ~backoff tasks =
  let is_cancelled () =
    match cancel with Some tok -> tok.tk_cancelled | None -> false
  in
  List.map
    (fun t ->
      if is_cancelled () then begin
        stats.cancelled <- stats.cancelled + 1;
        Failed (cancelled_failure t)
      end
      else if is_quarantined t then begin
        stats.quarantined <- stats.quarantined + 1;
        Failed (quarantine_failure t)
      end
      else
        match cache_load cache t with
        | Some v ->
          stats.cache_hits <- stats.cache_hits + 1;
          Done v
        | None ->
          let rec attempt k =
            stats.executed <- stats.executed + 1;
            match capture t.req () with
            | Ok v ->
              cache_store cache t v;
              if k = 1 then Done v else Retried (v, k - 1)
            | Error msg ->
              record_failure t;
              if k <= retries && not (is_cancelled ()) then begin
                stats.retried <- stats.retried + 1;
                Unix.sleepf (backoff_delay ~backoff k);
                attempt (k + 1)
              end
              else begin
                stats.failed <- stats.failed + 1;
                Failed
                  {
                    fl_label = t.label;
                    fl_kind = Crashed;
                    fl_attempts = k;
                    fl_detail = msg;
                  }
              end
          in
          attempt 1)
    tasks

(* ------------------------------------------------------------------ *)
(* Pool workers.  A worker is a forked process that keeps the work      *)
(* function it inherited and answers one request after another over its *)
(* own pair of pipes, so what a process keeps between cells (the        *)
(* harness's pooled guest RAM, the engines' recycled tables) outlives a *)
(* cell.  Requests and results are marshalled plain data; no closure    *)
(* crosses a pipe.                                                      *)
(* ------------------------------------------------------------------ *)

(* [Unix.file_descr] is the descriptor number wherever [Unix.fork]
   exists. *)
let descr_of_int : int -> Unix.file_descr = Obj.magic

(* A forked worker inherits every descriptor of its parent: client and
   listener sockets, sibling workers' pipe ends.  Holding them would keep
   a socket the parent closed open at its peer, and keep a sibling's
   request pipe open after the parent closed it or died, so that sibling
   would never read end of file.  Close all but stdio and [keep]. *)
let close_inherited ~keep =
  let listing =
    List.find_map
      (fun dir -> try Some (Sys.readdir dir) with Sys_error _ -> None)
      [ "/proc/self/fd"; "/dev/fd" ]
  in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some n when n > 2 && not (List.mem (descr_of_int n) keep) -> (
        try Unix.close (descr_of_int n) with Unix.Unix_error _ -> ())
      | _ -> ())
    (Option.value listing ~default:[||])

(* The body of a worker: answer requests until the request pipe reaches
   end of file (the scheduler closed it, or died), then [_exit], skipping
   the parent's at_exit handlers and buffered output.  A result that
   cannot be marshalled, or a scheduler gone mid-write, ends the worker
   the same way, and the scheduler reports the death. *)
let worker_loop work ~requests ~results =
  close_inherited ~keep:[ requests; results ];
  let ic = Unix.in_channel_of_descr requests in
  let rec loop () =
    match Marshal.from_channel ic with
    | exception _ -> Unix._exit 0
    | req -> (
      match Marshal.to_string (capture work req) [] with
      | exception _ -> Unix._exit 0
      | payload -> (
        match Unix.write_substring results payload 0 (String.length payload) with
        | _ -> loop ()
        | exception Unix.Unix_error _ -> Unix._exit 0))
  in
  loop ()

(* The bytes of the complete result at the head of [buf], once all of
   them have arrived: the marshal header gives the length. *)
let result_payload buf =
  let have = Buffer.length buf in
  if have < Marshal.header_size then None
  else
    let header = Bytes.unsafe_of_string (Buffer.sub buf 0 Marshal.header_size) in
    let total = Marshal.total_size header 0 in
    if have < total then None else Some (Buffer.sub buf 0 total)

(* ------------------------------------------------------------------ *)
(* Incremental scheduler: the worker machinery exposed as a pump-style  *)
(* API so a surrounding event loop (the batch [run] below, or the       *)
(* [Sb_serve] daemon's socket loop) can multiplex worker pipes          *)
(* alongside its own file descriptors.  Each submitted job resolves     *)
(* through quarantine and the cache first; misses queue for one of at   *)
(* most [jobs] workers, forked at the first dispatch that finds none    *)
(* free, and the completion callback fires as outcomes land (completion *)
(* order, not submission order).                                        *)
(* ------------------------------------------------------------------ *)

module Sched = struct
  type ('r, 'a) entry = {
    e_job : 'r job;
    e_cancel : token option;
    e_k : 'a outcome -> unit;
  }

  type ('r, 'a) running = {
    r_entry : ('r, 'a) entry;
    r_attempt : int; (* 1-based *)
    r_start : float;
  }

  type ('r, 'a) worker = {
    w_pid : int;
    w_requests : Unix.file_descr; (* write end *)
    w_results : Unix.file_descr; (* read end, non-blocking *)
    w_buf : Buffer.t; (* result bytes read so far *)
    mutable w_running : ('r, 'a) running option; (* [None]: idle *)
  }

  type ('r, 'a) t = {
    s_work : 'r -> 'a;
    s_jobs : int;
    s_cache : Cache.t option;
    s_stats : stats;
    s_deadline : float option;
    s_retries : int;
    s_backoff : float;
    s_queue : (('r, 'a) entry * int) Queue.t;
    (* delayed retries: (ready_at, entry, attempt) *)
    mutable s_delayed : (float * ('r, 'a) entry * int) list;
    (* live workers keyed by their result fd, which is what [Unix.select]
       hands back *)
    s_workers : (Unix.file_descr, ('r, 'a) worker) Hashtbl.t;
    s_read_buf : Bytes.t;
  }

  let create ?(jobs = 1) ?cache ?stats:(s = stats ()) ?deadline ?(retries = 0)
      ?(backoff = 0.05) ~work () =
    (match deadline with
    | Some d when d <= 0.0 -> invalid_arg "Sched.create: deadline must be positive"
    | _ -> ());
    if retries < 0 then invalid_arg "Sched.create: retries must be non-negative";
    if backoff < 0.0 then invalid_arg "Sched.create: backoff must be non-negative";
    {
      s_work = work;
      s_jobs = max 1 jobs;
      s_cache = cache;
      s_stats = s;
      s_deadline = deadline;
      s_retries = retries;
      s_backoff = backoff;
      s_queue = Queue.create ();
      s_delayed = [];
      s_workers = Hashtbl.create 16;
      s_read_buf = Bytes.create 65536;
    }

  let entry_cancelled e =
    match e.e_cancel with Some tok -> tok.tk_cancelled | None -> false

  let deliver_cancelled st e =
    st.s_stats.cancelled <- st.s_stats.cancelled + 1;
    e.e_k (Failed (cancelled_failure e.e_job))

  let spawn st =
    let requests_r, requests_w = Unix.pipe () in
    let results_r, results_w = Unix.pipe () in
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 -> worker_loop st.s_work ~requests:requests_r ~results:results_w
    | pid ->
      Unix.close requests_r;
      Unix.close results_w;
      (* a spurious readable report must never block the caller's loop *)
      Unix.set_nonblock results_r;
      st.s_stats.forked <- st.s_stats.forked + 1;
      let w =
        {
          w_pid = pid;
          w_requests = requests_w;
          w_results = results_r;
          w_buf = Buffer.create 256;
          w_running = None;
        }
      in
      Hashtbl.replace st.s_workers results_r w;
      w

  (* Stop a worker for good and reap it.  SIGKILL leaves the status of a
     worker that already died alone, so the status says how it died. *)
  let retire st w =
    Hashtbl.remove st.s_workers w.w_results;
    Unix.close w.w_requests;
    Unix.close w.w_results;
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    snd (restart_on_intr (fun () -> Unix.waitpid [] w.w_pid))

  let free_worker st =
    let idle =
      Hashtbl.fold
        (fun _ w acc -> if w.w_running = None then Some w else acc)
        st.s_workers None
    in
    match idle with
    | Some _ -> idle
    | None ->
      if Hashtbl.length st.s_workers < st.s_jobs then Some (spawn st) else None

  (* Hand [e] to the idle worker [w].  A worker that died while idle fails
     the write with EPIPE; it is retired and [false] returned, so the
     entry stays queued without an attempt counted.  SIGPIPE is ignored
     around the write so that death cannot kill this process. *)
  let send st w e ~attempt =
    let payload = Marshal.to_string e.e_job.req [] in
    let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let sent =
      match
        restart_on_intr (fun () ->
            Unix.write_substring w.w_requests payload 0 (String.length payload))
      with
      | _ -> true
      | exception Unix.Unix_error (Unix.EPIPE, _, _) -> false
    in
    Sys.set_signal Sys.sigpipe sigpipe;
    if sent then begin
      st.s_stats.executed <- st.s_stats.executed + 1;
      w.w_running <-
        Some { r_entry = e; r_attempt = attempt; r_start = Unix.gettimeofday () }
    end
    else ignore (retire st w);
    sent

  let rec fill st =
    match Queue.peek_opt st.s_queue with
    | None -> ()
    | Some (e, _) when entry_cancelled e ->
      ignore (Queue.pop st.s_queue);
      deliver_cancelled st e;
      fill st
    | Some (e, attempt) -> (
      match free_worker st with
      | None -> ()
      | Some w ->
        if send st w e ~attempt then ignore (Queue.pop st.s_queue);
        fill st)

  let submit st ?cancel ?key ~label req ~k =
    let job = { key; label; req } in
    let e = { e_job = job; e_cancel = cancel; e_k = k } in
    if entry_cancelled e then deliver_cancelled st e
    else if is_quarantined job then begin
      st.s_stats.quarantined <- st.s_stats.quarantined + 1;
      k (Failed (quarantine_failure job))
    end
    else
      match cache_load st.s_cache job with
      | Some v ->
        st.s_stats.cache_hits <- st.s_stats.cache_hits + 1;
        k (Done v)
      | None ->
        Queue.add (e, 1) st.s_queue;
        fill st

  let fail st e ~attempt ~timed_out ~detail =
    record_failure e.e_job;
    if (not timed_out) && attempt <= st.s_retries && not (entry_cancelled e)
    then begin
      (* crashes are retried with exponential backoff; timeouts are not —
         a cell that hit the deadline once would burn deadline seconds per
         extra attempt for a result the budget already rejected *)
      st.s_stats.retried <- st.s_stats.retried + 1;
      st.s_delayed <-
        ( Unix.gettimeofday () +. backoff_delay ~backoff:st.s_backoff attempt,
          e,
          attempt + 1 )
        :: st.s_delayed
    end
    else begin
      if timed_out then st.s_stats.timed_out <- st.s_stats.timed_out + 1;
      st.s_stats.failed <- st.s_stats.failed + 1;
      e.e_k
        (Failed
           {
             fl_label = e.e_job.label;
             fl_kind = (if timed_out then Timed_out else Crashed);
             fl_attempts = attempt;
             fl_detail = detail;
           })
    end

  (* A whole result arrived.  A success frees the worker: the callback
     fires first, since it may cancel queued work, then the worker takes
     its next queued request, and only then is the cache entry written,
     so the worker does not sit idle through the store's fsyncs.  A
     reported failure retires the worker, so no attempt runs in a process
     a failed one left behind. *)
  let complete st w r payload =
    w.w_running <- None;
    Buffer.clear w.w_buf;
    let e = r.r_entry in
    match (Marshal.from_string payload 0 : (_, string) result) with
    | Ok v ->
      e.e_k (if r.r_attempt = 1 then Done v else Retried (v, r.r_attempt - 1));
      fill st;
      cache_store st.s_cache e.e_job v
    | Error msg ->
      ignore (retire st w);
      fail st e ~attempt:r.r_attempt ~timed_out:false ~detail:msg

  let on_readable st w =
    match Unix.read w.w_results st.s_read_buf 0 (Bytes.length st.s_read_buf) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | got -> (
      match w.w_running with
      | None ->
        (* an idle worker has nothing to say: it is readable because it
           died *)
        ignore (retire st w)
      | Some r when got = 0 ->
        let status = retire st w in
        fail st r.r_entry ~attempt:r.r_attempt ~timed_out:false
          ~detail:
            (Printf.sprintf "worker %s without reporting a result"
               (describe_status status))
      | Some r ->
        Buffer.add_subbytes w.w_buf st.s_read_buf 0 got;
        Option.iter (complete st w r) (result_payload w.w_buf))

  let kill_expired st =
    match st.s_deadline with
    | None -> ()
    | Some d ->
      let now = Unix.gettimeofday () in
      let expired =
        Hashtbl.fold
          (fun _ w acc ->
            match w.w_running with
            | Some r when now -. r.r_start >= d -> (w, r) :: acc
            | _ -> acc)
          st.s_workers []
      in
      List.iter
        (fun (w, r) ->
          ignore (retire st w);
          fail st r.r_entry ~attempt:r.r_attempt ~timed_out:true
            ~detail:(Printf.sprintf "exceeded %.1fs deadline; killed" d))
        expired

  let sweep_cancelled st =
    if
      Queue.fold (fun acc (e, _) -> acc || entry_cancelled e) false st.s_queue
    then begin
      let keep = Queue.create () in
      Queue.iter
        (fun (e, attempt) ->
          if entry_cancelled e then deliver_cancelled st e
          else Queue.add (e, attempt) keep)
        st.s_queue;
      Queue.clear st.s_queue;
      Queue.transfer keep st.s_queue
    end

  let pump st ~readable =
    (* promote retries whose backoff has elapsed *)
    let now = Unix.gettimeofday () in
    let due, still =
      List.partition (fun (at, _, _) -> at <= now) st.s_delayed
    in
    st.s_delayed <- still;
    List.iter
      (fun (_, e, attempt) ->
        if entry_cancelled e then deliver_cancelled st e
        else Queue.add (e, attempt) st.s_queue)
      due;
    sweep_cancelled st;
    List.iter
      (fun fd ->
        (* fds the scheduler does not own are the caller's *)
        Option.iter (on_readable st) (Hashtbl.find_opt st.s_workers fd))
      readable;
    kill_expired st;
    fill st

  let fds st = Hashtbl.fold (fun fd _ acc -> fd :: acc) st.s_workers []

  let timeout st =
    (* one select timeout serves both attempt deadlines and retry
       wake-ups: sleep until the earliest of them, or forever when neither
       applies *)
    let wakeups =
      (match st.s_deadline with
      | None -> []
      | Some d ->
        Hashtbl.fold
          (fun _ w acc ->
            match w.w_running with Some r -> (r.r_start +. d) :: acc | None -> acc)
          st.s_workers [])
      @ List.map (fun (at, _, _) -> at) st.s_delayed
    in
    match wakeups with
    | [] -> -1.0
    | l ->
      Float.max 0.0
        (List.fold_left Float.min infinity l -. Unix.gettimeofday ())

  let queued st = Queue.length st.s_queue + List.length st.s_delayed

  let active st =
    Hashtbl.fold
      (fun _ w n -> if w.w_running = None then n else n + 1)
      st.s_workers 0

  let idle st = queued st = 0 && active st = 0

  let drain st =
    while not (idle st) do
      let readable, _, _ =
        restart_on_intr (fun () -> Unix.select (fds st) [] [] (timeout st))
      in
      pump st ~readable
    done

  let close st =
    List.iter
      (fun w -> ignore (retire st w))
      (Hashtbl.fold (fun _ w acc -> w :: acc) st.s_workers [])
end

(* ------------------------------------------------------------------ *)
(* Batch entry point: the parallel path is the incremental scheduler    *)
(* driven to completion, with results re-ordered back to task order.    *)
(* ------------------------------------------------------------------ *)

let run_par ~jobs ~cache ~stats ~deadline ~retries ~backoff ~cancel tasks =
  let tasks = Array.of_list tasks in
  (* the workers fork after [tasks] exists and inherit it, so a request
     is a task's index *)
  let st =
    Sched.create ~jobs ?cache ~stats ?deadline ~retries ~backoff
      ~work:(fun i -> tasks.(i).req ())
      ()
  in
  let results = Array.make (Array.length tasks) None in
  Fun.protect
    ~finally:(fun () -> Sched.close st)
    (fun () ->
      Array.iteri
        (fun i t ->
          Sched.submit st ?cancel ?key:t.key ~label:t.label i ~k:(fun o ->
              results.(i) <- Some o))
        tasks;
      Sched.drain st);
  Array.to_list
    (Array.map
       (function
         | Some outcome -> outcome
         | None ->
           Failed
             {
               fl_label = "pool";
               fl_kind = Crashed;
               fl_attempts = 0;
               fl_detail = "result lost";
             })
       results)

let run ?(jobs = 1) ?cache ?stats:(s = stats ()) ?deadline ?(retries = 0)
    ?(backoff = 0.05) ?cancel tasks =
  (match deadline with
  | Some d when d <= 0.0 -> invalid_arg "Pool.run: deadline must be positive"
  | _ -> ());
  if retries < 0 then invalid_arg "Pool.run: retries must be non-negative";
  if backoff < 0.0 then invalid_arg "Pool.run: backoff must be non-negative";
  match deadline with
  | None when jobs <= 1 || List.length tasks <= 1 ->
    run_seq ?cancel ~cache ~stats:s ~retries ~backoff tasks
  | _ ->
    (* a deadline forces the forked path even at -j 1: only a child
       process can be killed when it hangs *)
    run_par ~jobs:(max 1 jobs) ~cache ~stats:s ~deadline ~retries ~backoff
      ~cancel tasks
