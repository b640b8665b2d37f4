(* serve-mixed: the repository's own callers of the benchmark service,
   replayed against a forked Sb_serve.Serve daemon ([jobs = 2]) by this
   process over two closed-loop connections, each with one job in flight.
   A pass is one session of a fresh daemon with a fresh store, as every CI
   run starts one:

   - connection 1 submits the bench smoke grid: Figure 7 at
     [bench/main.exe --quick] settings with CI's [--repeats 3], the cells
     of bench/baseline/smoke.json that [simbench compare ... serve:ADDR]
     checks.  It goes in as one job per engine column, the form
     [simbench client --cell ... -e E -a A] takes.  Then it submits the
     grid again, as CI records the bench smoke twice;
   - connection 2 submits the ci/serve-soak.sh spec eight times, once per
     soak client.

   Of the 312 cells a session requests, the 147 distinct ones are
   simulated and stored; the other 165 (53%) are answered by coalescing
   and memo hits.  The seed orders the columns of each grid submission and
   the cells within each column. *)

module P = Sb_serve.Protocol
module J = Sb_util.Json

let grid_scale = Sb_report.Experiments.quick_config.Sb_report.Experiments.scale
let grid_repeats = 3
let soak_clients = 8

let spec ~arch ~engine ~iters ~repeats bench =
  { P.sp_bench = bench; sp_engine = engine; sp_arch = arch; sp_iters = Some iters;
    sp_repeats = repeats }

(* The grid's columns: the paper's engines on both ISAs, each over the 18
   suite benches. *)
let grid ~smoke =
  List.concat_map
    (fun arch ->
      List.map
        (fun (_, engine) ->
          List.filter_map
            (fun b ->
              let name = b.Simbench.Bench.name in
              if smoke && not (List.mem name [ "Small Blocks"; "System Call" ]) then None
              else
                Some
                  (spec ~arch ~engine:(Grid.family engine)
                     ~iters:(Grid.bench_iters ~scale:grid_scale b)
                     ~repeats:grid_repeats name))
            Simbench.Suite.all)
        (Simbench.Engines.paper_set arch))
    (if smoke then [ Sb_isa.Arch_sig.Sba ] else Simbench.Engines.all_arches)
  |> List.filteri (fun i _ -> (not smoke) || i < 2)

(* ci/serve-soak.sh's spec. *)
let soak =
  let sba = Sb_isa.Arch_sig.Sba and vlx = Sb_isa.Arch_sig.Vlx in
  [
    spec ~arch:sba ~engine:"interp" ~iters:400 ~repeats:2 "Small Blocks";
    spec ~arch:sba ~engine:"dbt" ~iters:400 ~repeats:1 "Hot Memory Access";
    spec ~arch:vlx ~engine:"interp" ~iters:400 ~repeats:1 "System Call";
  ]

(* The jobs of one session, one list per connection. *)
let session_jobs ~smoke rng =
  let columns () =
    List.map (Ctx.shuffled rng) (Ctx.shuffled rng (grid ~smoke))
  in
  let first = columns () in
  [ first @ columns (); List.init (if smoke then 2 else soak_clients) (fun _ -> soak) ]

(* Every serve cell is checked against the reference; the iteration count
   is part of the key because the soak spec and the grid share cells. *)
let ref_key sp =
  Reference.key ~workload:"serve-mixed" ~arch:(P.arch_name sp.P.sp_arch)
    ~engine:sp.P.sp_engine
    ~cell:(Printf.sprintf "%s@%d" sp.P.sp_bench (Option.get sp.P.sp_iters))

(* ------------------------------------------------------------------ *)
(* Daemon and connections                                               *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; path : string; cache : string }

(* Daemons not yet stopped, for {!reap_all}. *)
let live = ref []

let reap ?(grace = 10.) pid =
  let deadline = Spans.now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Spans.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let reap_all () = List.iter (reap ~grace:0.) !live

let start_daemon (ctx : Ctx.t) name =
  let path = Filename.concat ctx.work (name ^ ".sock") in
  let cache = Filename.concat ctx.work (name ^ "-cache") in
  let cfg =
    {
      Sb_serve.Serve.default_config with
      unix_path = Some path;
      jobs = 2;
      cache_dir = Some cache;
    }
  in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    (* the child must not run this process's at_exit handlers *)
    (try Sb_serve.Serve.run (Sb_serve.Serve.create cfg) with _ -> Unix._exit 2);
    Unix._exit 0
  | pid ->
    live := pid :: !live;
    { pid; path; cache }

type conn = {
  fd : Unix.file_descr;
  lane : int;
  inbuf : Buffer.t;
  chunk : Bytes.t;
}

let send c req =
  let s = Bytes.of_string (P.frame (P.request_to_json req)) in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

(* The first complete frame already buffered. *)
let next_line c =
  let data = Buffer.contents c.inbuf in
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (String.sub data (i + 1) (String.length data - i - 1));
    Some (String.sub data 0 i)

(* Read what is available; [false] at end of stream. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.inbuf c.chunk 0 n;
    true

let rec read_frame c ~timeout =
  match next_line c with
  | Some line -> P.response_of_line line
  | None -> (
    match Unix.select [ c.fd ] [] [] timeout with
    | [], _, _ -> Error "no frame from the daemon"
    | _ ->
      if fill c then read_frame c ~timeout
      else Error "daemon closed the connection")

(* Connect once the daemon listens, and wait for its hello. *)
let connect d ~lane =
  let deadline = Spans.now () +. 10. in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Spans.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      attempt ()
  in
  let c =
    {
      fd = attempt ();
      lane;
      inbuf = Buffer.create 4096;
      chunk = Bytes.create 65536;
    }
  in
  match read_frame c ~timeout:10. with
  | Ok (P.Hello _) -> c
  | Ok _ -> failwith "serve: first frame is not a hello"
  | Error e -> failwith ("serve: " ^ e)

(* Fork a daemon and connect [n] clients: the set-up, timed. *)
let start (ctx : Ctx.t) name n =
  let t0 = Spans.now () in
  let d = start_daemon ctx name in
  let conns = List.init n (fun i -> connect d ~lane:(i + 1)) in
  (Spans.now () -. t0, d, conns)

(* The daemon's status counters, its peak RSS, then a graceful stop. *)
let stop_daemon d conns =
  let c = List.hd conns in
  send c P.Status;
  let rec status () =
    match read_frame c ~timeout:10. with
    | Ok (P.Status_report j) -> Some j
    | Ok _ -> status ()
    | Error _ -> None
  in
  let status = status () in
  let rss = Ctx.max_rss_mb (string_of_int d.pid) in
  send c P.Shutdown;
  List.iter
    (fun c ->
      let rec drain () =
        match read_frame c ~timeout:10. with
        | Ok (P.Bye _) | Error _ -> ()
        | Ok _ -> drain ()
      in
      drain ();
      Unix.close c.fd)
    conns;
  reap d.pid;
  Ctx.rm_rf d.cache;
  (status, rss)

(* ------------------------------------------------------------------ *)
(* Traffic                                                              *)
(* ------------------------------------------------------------------ *)

type row = {
  cached : bool;
  latency : float;  (** from job submission to row arrival, seconds *)
  row : Sb_report.Experiments.row;
}

type job = {
  idx : int;
  t0 : float;
  span : int;
  cells : P.cell_spec list;
  keys : (string, P.cell_spec) Hashtbl.t;
  mutable got : int;
}

(* Closed loop: each connection submits its next job when the previous one
   is done, until its queue is empty.  Returns the rows and the job
   latencies. *)
let traffic (ctx : Ctx.t) ~root conns queues =
  let inflight = Hashtbl.create 4 in
  let queues = List.map2 (fun c q -> (c.lane, ref q)) conns queues in
  let issued = ref 0 in
  let rows = ref [] and latencies = ref [] in
  let submit c =
    let q = List.assoc c.lane queues in
    match !q with
    | [] -> ()
    | cells :: rest ->
      q := rest;
      let idx = !issued in
      incr issued;
      let keys = Hashtbl.create 32 in
      List.iter (fun sp -> Hashtbl.replace keys (P.spec_key sp) sp) cells;
      let span = Spans.fresh ctx.spans in
      let j = { idx; t0 = Spans.now (); span; cells; keys; got = 0 } in
      Hashtbl.replace inflight c.lane j;
      send c (P.Submit { id = string_of_int idx; cells; resume = false })
  in
  let finish c j =
    let stop = Spans.now () in
    latencies := (stop -. j.t0) :: !latencies;
    Spans.record ctx.spans ~id:j.span ~parent:root ~lane:c.lane
      ~args:[ ("job", string_of_int j.idx) ]
      "job" ~start:j.t0 ~stop;
    let expected = List.length j.cells in
    if j.got < expected then
      Ctx.missing ctx (expected - j.got) (Printf.sprintf "job %d: row missing" j.idx);
    Hashtbl.remove inflight c.lane;
    submit c
  in
  let on_row c j ~key ~cached cell =
    let now = Spans.now () in
    j.got <- j.got + 1;
    match (Hashtbl.find_opt j.keys key, P.row_of_json cell) with
    | None, _ ->
      Ctx.missing ctx 1
        (Printf.sprintf "job %d: row for an unsubmitted key" j.idx)
    | _, Error e -> Ctx.missing ctx 1 (Printf.sprintf "job %d: %s" j.idx e)
    | Some sp, Ok row ->
      ignore
        (Spans.add ctx.spans ~parent:j.span ~lane:c.lane
           ~args:[ ("cell", ref_key sp); ("cached", string_of_bool cached) ]
           "row" ~start:j.t0 ~stop:now);
      let ok = row.Sb_report.Experiments.row_status = "ok" in
      Ctx.check ctx ~key:(ref_key sp)
        (if ok then Ok row.Sb_report.Experiments.row_kernel_insns
         else Error ("row status " ^ row.Sb_report.Experiments.row_status));
      if ok then rows := { cached; latency = now -. j.t0; row } :: !rows
  in
  let handle c line =
    match (Hashtbl.find_opt inflight c.lane, P.response_of_line line) with
    | None, _ | _, Ok (P.Ack _ | P.Pong _ | P.Hello _) -> ()
    | Some j, Ok (P.Row { key; cached; cell; _ }) -> on_row c j ~key ~cached cell
    | Some j, Ok (P.Job_done _) -> finish c j
    | Some j, Ok (P.Error_msg { message; _ }) ->
      Ctx.fail ctx (Printf.sprintf "job %d: %s" j.idx message);
      finish c j
    | Some j, Ok _ -> Ctx.fail ctx (Printf.sprintf "job %d: unexpected frame" j.idx)
    | Some j, Error e -> Ctx.fail ctx (Printf.sprintf "job %d: %s" j.idx e)
  in
  List.iter submit conns;
  while Hashtbl.length inflight > 0 do
    let busy = List.filter (fun c -> Hashtbl.mem inflight c.lane) conns in
    match Unix.select (List.map (fun c -> c.fd) busy) [] [] 60. with
    | [], _, _ -> failwith "serve: no frame for 60 s"
    | readable, _, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd readable then
            if fill c then
              let rec each () =
                match next_line c with
                | Some line ->
                  handle c line;
                  each ()
                | None -> ()
              in
              each ()
            else begin
              Ctx.fail ctx "daemon closed a connection";
              Hashtbl.remove inflight c.lane
            end)
        busy
  done;
  (List.rev !rows, !latencies)

(* One session: a fresh daemon, [queues] submitted, the daemon stopped. *)
type session = {
  setup : float;  (** daemon fork to every connection's hello *)
  took : float;  (** first submission to last job done *)
  rows : row list;
  latencies : float list;  (** per job, seconds *)
  status : J.t option;
  rss : float;  (** the daemon's peak RSS, MiB *)
}

let session (ctx : Ctx.t) ~name ~phase queues =
  let setup, d, conns = start ctx name (List.length queues) in
  let root = Spans.fresh ctx.spans in
  let start = Spans.now () in
  let rows, latencies = traffic ctx ~root conns queues in
  let stop = Spans.now () in
  Spans.record ctx.spans ~id:root ~args:[ ("phase", phase) ] "session" ~start ~stop;
  let status, rss = stop_daemon d conns in
  { setup; took = stop -. start; rows; latencies; status; rss }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let ms xs = List.map (fun x -> x *. 1000.) xs

let status_int status path =
  let rec go j = function
    | [] -> J.int_opt j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  Option.value ~default:0 (Option.bind status (fun s -> go s path))

(* Latencies of the rows [f] selects, in ms. *)
let row_latencies f sessions =
  List.concat_map (fun s -> s.rows) sessions
  |> List.filter_map (fun r -> if f r then Some r.latency else None)
  |> ms

(* The serve.* layer values of some sessions: job latencies, cached-row
   latency, and the median per session of the daemon's counters. *)
let serve_values sessions =
  let rows = List.concat_map (fun s -> s.rows) sessions in
  let jobs = ms (List.concat_map (fun s -> s.latencies) sessions) in
  let non_kernel =
    List.filter_map
      (fun r ->
        if r.cached then None
        else Some (r.latency -. r.row.Sb_report.Experiments.row_seconds))
      rows
  in
  let counter path =
    Perf_stats.median
      (List.map (fun s -> float_of_int (status_int s.status path)) sessions)
  in
  let dedup = counter [ "counters"; "deduplicated" ] in
  let cells = counter [ "counters"; "cells_submitted" ] in
  [
    ("serve.row_cached_ms.p50", Perf_stats.median (row_latencies (fun r -> r.cached) sessions));
    ("serve.job_ms.p50", Perf_stats.median jobs);
    ("serve.job_ms.p95", Perf_stats.percentile jobs 95.);
    ("serve.non_kernel_ms.p50", Perf_stats.median (ms non_kernel));
    ("serve.dedup_ratio", if cells = 0. then 0. else dedup /. cells);
    ("serve.simulated", counter [ "counters"; "simulated" ]);
    ("serve.deduplicated", dedup);
    ("serve.clients_dropped", counter [ "counters"; "clients_dropped" ]);
    ("jobs.pool.forked", counter [ "pool"; "forked" ]);
    ("jobs.cache.evictions", counter [ "counters"; "fsck_evictions" ]);
  ]

let perf_of_row (r : Sb_report.Experiments.row) =
  let p = Sb_sim.Perf.create () in
  List.iter
    (fun c ->
      Option.iter (Sb_sim.Perf.add p c)
        (List.assoc_opt (Sb_sim.Perf.to_string c) r.Sb_report.Experiments.row_perf))
    Sb_sim.Perf.all;
  p

(* The distinct cells of a session as in-process grid cells, run once
   each: the daemon's workers cannot be timed from outside, so on
   serve-mixed the harness layer times come from this replay. *)
let replay (ctx : Ctx.t) =
  List.sort_uniq compare (soak @ List.concat (grid ~smoke:ctx.smoke))
  |> List.filter_map (fun sp ->
         let arch = sp.P.sp_arch and engine = sp.P.sp_engine in
         Grid.run_cell ctx ~phase:"replay" ~key:(ref_key sp)
           {
             Grid.arch;
             engine;
             make = (fun () -> Result.get_ok (Simbench.Engines.of_string arch engine));
             target = Grid.Bench (Option.get (Simbench.Suite.find sp.P.sp_bench));
             iters = Option.get sp.P.sp_iters;
             warm = false;
           })

(* A short session for the probes of the other workloads: the soak spec
   from each soak client in turn, simulated once and then served from the
   memo. *)
let probe_session (ctx : Ctx.t) =
  let n = if ctx.smoke then 2 else soak_clients in
  serve_values [ session ctx ~name:"probe" ~phase:"probe" [ List.init n (fun _ -> soak) ] ]

(* A set-up on its own: fork the daemon, connect both clients, stop. *)
let time_setup (ctx : Ctx.t) =
  let t, d, conns = start ctx "setup" 2 in
  ignore (stop_daemon d conns);
  t

let run (ctx : Ctx.t) ~cold_setups : Metrics.measured =
  let sessions =
    Ctx.passes ctx (fun n ->
        session ctx ~name:(Printf.sprintf "serve-%d" n) ~phase:"measure"
          (session_jobs ~smoke:ctx.smoke ctx.rng))
  in
  (* the first session's daemon is this process's first: a cold set-up *)
  let own = (List.hd sessions).setup in
  let rows = List.concat_map (fun s -> s.rows) sessions in
  let mips =
    List.filter_map
      (fun r ->
        let s = r.row.Sb_report.Experiments.row_seconds in
        if r.cached || s <= 0. then None
        else
          let insns = r.row.Sb_report.Experiments.row_kernel_insns in
          Some (float_of_int insns /. s /. 1e6))
      rows
  in
  (* a user waits on the rows that have to be simulated; a cached row
     arrives in about a millisecond (serve.row_cached_ms.p50) *)
  let latencies = row_latencies (fun r -> not r.cached) sessions in
  let wall = Perf_stats.median (List.map (fun s -> s.took) sessions) in
  let e2e =
    [
      ("setup_s", Perf_stats.median (own :: cold_setups));
      ("wall_s", wall);
      ("kernel_mips", Perf_stats.geomean mips);
      ("latency_p50_ms", Perf_stats.percentile latencies 50.);
      ("latency_p95_ms", Perf_stats.percentile latencies 95.);
      (* a daemon forks from this process, so later daemons start with
         the rows kept since: the first one's peak is comparable *)
      ("max_rss_mb", (List.hd sessions).rss);
    ]
  in
  (* one row per distinct cell of the first session: its counters repeat
     exactly for a seed.  A row's engine is the spec's engine family. *)
  let first = Hashtbl.create 256 in
  List.iter
    (fun { row; _ } ->
      let k =
        Sb_report.Experiments.
          (row.row_cell, row.row_engine, row.row_arch, row.row_iters, row.row_repeats)
      in
      if not (Hashtbl.mem first k) then
        Hashtbl.replace first k
          (row.Sb_report.Experiments.row_engine, perf_of_row row))
    (List.hd sessions).rows;
  let counts, ratios =
    Metrics.counter_values (Hashtbl.fold (fun _ v acc -> v :: acc) first [])
  in
  {
    e2e;
    layer =
      (("trace.wall_s", wall)
      :: (if ctx.traced then Grid.layer_times [ replay ctx ] else []))
      @ serve_values sessions
      @ List.map (fun (n, v) -> (n, float_of_int v)) counts
      @ ratios;
    exact = counts;
    samples = List.length latencies;
  }
