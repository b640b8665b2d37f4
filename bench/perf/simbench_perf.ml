(* simbench_perf: the repository benchmark.  See README.md.

     simbench_perf run --workload W [--workload W]... [--seed N]
       [--seconds S] [--trace 0|1] [--trace-file FILE] [--out FILE]
       [--smoke] [--update-reference]
     simbench_perf setup --workload W [--smoke]
     simbench_perf compare BASE.jsonl [NEW.jsonl ...]
     simbench_perf smoke

   Run from the repository root.  [setup] performs one set-up and prints
   its time; [run] spawns it for its cold set-ups. *)

let workloads = [ "dbt-sweep"; "engine-grid"; "setup-heavy"; "serve-mixed" ]

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_file : string option;
  mutable out : string option;
  mutable smoke : bool;
  mutable update : bool;
}

let usage () =
  prerr_endline
    "usage: simbench_perf run --workload W [--workload W]... [--seed N] [--seconds S]\n\
    \         [--trace 0|1] [--trace-file FILE (one workload)] [--out FILE] [--smoke]\n\
    \         [--update-reference]\n\
    \       simbench_perf compare BASE.jsonl [NEW.jsonl ...]\n\
    \       simbench_perf smoke";
  exit 2

let parse_run args =
  let o =
    { names = []; seed = 1; seconds = 20.; trace = false; trace_file = None; out = None;
      smoke = false; update = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      o.names <- o.names @ [ w ];
      go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      o.seed <- int_of_string n;
      go rest
    | "--seconds" :: s :: rest when float_of_string_opt s <> None ->
      o.seconds <- float_of_string s;
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      o.trace <- t = "1";
      go rest
    | "--trace-file" :: f :: rest ->
      o.trace_file <- Some f;
      go rest
    | "--out" :: f :: rest ->
      o.out <- Some f;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--update-reference" :: rest ->
      o.update <- true;
      go rest
    | a :: _ ->
      Printf.eprintf "simbench_perf run: bad argument %S (workloads: %s)\n" a
        (String.concat ", " workloads);
      exit 2
  in
  go args;
  if o.names = [] || (o.trace_file <> None && List.length o.names > 1) then usage ();
  o

(* A grid workload's cells and its set-up. *)
let grid (ctx : Ctx.t) =
  let cells, setup =
    match ctx.workload with
    | "dbt-sweep" -> (Grid.dbt_sweep ~scale:4_000, Grid.warm_up)
    | "engine-grid" -> (Grid.engine_grid ~scale:40_000, Grid.warm_up)
    | _ -> (Grid.setup_heavy ~scale:100_000 ~app_iters:2, Grid.fill_store)
  in
  ((if ctx.smoke then Grid.smoke_filter cells else cells), setup)

(* Cold set-ups per run, each in a fresh process; setup_s is their
   median. *)
let setup_reps (ctx : Ctx.t) =
  if ctx.smoke then 2 else if ctx.workload = "setup-heavy" then 3 else 5

let measure (ctx : Ctx.t) ~cold_setups =
  match ctx.workload with
  | "serve-mixed" -> Serve_load.run ctx ~cold_setups
  | _ ->
    let cells, setup = grid ctx in
    Grid.run ctx cells ~setup ~cold_setups

let time_setup (ctx : Ctx.t) =
  match ctx.workload with
  | "serve-mixed" -> Serve_load.time_setup ctx
  | _ ->
    let cells, setup = grid ctx in
    fst (Grid.time_setup ctx cells ~setup)

let print_result (r : Metrics.result) (m : Metrics.measured) =
  Printf.printf "simbench-perf %s seed=%d seconds=%g trace=%d\n" r.workload
    r.seed r.seconds
    (if r.traced then 1 else 0);
  List.iter
    (fun (n, v) -> Printf.printf "  %-32s %14.6g %s\n" n v (Metrics.unit_of n))
    (Metrics.printed r);
  Printf.printf
    "  latency samples: %d (highest percentile with >=10 beyond: %s)\n"
    m.samples
    (match Perf_stats.supported_percentile m.samples with
    | Some p -> Printf.sprintf "p%g" p
    | None -> "none");
  Printf.printf "  operations: %d attempted, %d failed\n" r.attempted r.failed;
  List.iter (Printf.printf "  failure: %s\n") (List.rev r.failures);
  print_endline (Metrics.result_line r)

(* Run [args] as a child process of this executable; returns its exit code
   and standard output. *)
let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> (c, out)
  | _ -> (255, out)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* A fresh context for workload [name]; its scratch directory is removed
   and every daemon reaped when [f] returns. *)
let with_ctx o name f =
  let reference =
    if o.update then None
    else
      match Reference.load () with
      | Ok t -> Some t
      | Error e ->
        prerr_endline ("simbench_perf: " ^ e ^ " (run from the repository root)");
        exit 2
  in
  let work = Filename.concat ".perf-work" (string_of_int (Unix.getpid ())) in
  Sb_jobs.Cache.mkdir_p work;
  let ctx =
    {
      Ctx.workload = name;
      seconds = (if o.smoke then 0. else o.seconds);
      traced = o.trace;
      smoke = o.smoke;
      rng = Sb_util.Xorshift.create ~seed:o.seed;
      spans = Spans.create ();
      work;
      reference;
      observed = Hashtbl.create 512;
      perf = Hashtbl.create 512;
      attempted = 0;
      failed = 0;
      failures = [];
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve_load.reap_all ();
      Ctx.rm_rf work;
      try Sys.rmdir ".perf-work" with Sys_error _ -> ())
    (fun () -> f ctx)

(* [simbench_perf setup]: one set-up of the workload, the first thing this
   process does; prints its time. *)
let setup_one o name =
  with_ctx o name (fun ctx ->
      let t = time_setup ctx in
      print_endline (Metrics.num t);
      List.iter prerr_endline ctx.failures;
      if ctx.failed = 0 then 0 else 1)

(* Set-up times of [n] fresh processes, one after another. *)
let cold_setups o (ctx : Ctx.t) n =
  List.filter_map
    (fun _ ->
      let code, out =
        spawn
          ([ "setup"; "--workload"; ctx.workload; "--seed"; string_of_int o.seed ]
          @ if o.smoke then [ "--smoke" ] else [])
      in
      match (code, float_of_string_opt (last_line out)) with
      | 0, Some t -> Some t
      | _ ->
        Ctx.missing ctx 1 (Printf.sprintf "set-up process: exit %d" code);
        None)
    (List.init n Fun.id)

let run_one o name =
  let ctx, m, probes =
    with_ctx o name (fun ctx ->
        let cold_setups = cold_setups o ctx (setup_reps ctx - 1) in
        let m = measure ctx ~cold_setups in
        (ctx, m, if o.trace then Probes.run ctx ~serve:(name <> "serve-mixed") else []))
  in
  let r =
    {
      Metrics.workload = name;
      seed = o.seed;
      seconds = ctx.seconds;
      traced = o.trace;
      attempted = ctx.attempted;
      failed = ctx.failed;
      failures = ctx.failures;
      values = m.e2e @ m.layer @ probes;
      exact = m.exact;
    }
  in
  (* every printed metric must have been measured *)
  let r =
    List.fold_left
      (fun (r : Metrics.result) def ->
        match List.assoc_opt def.Metrics.name r.values with
        | Some v when Float.is_finite v -> r
        | _ ->
          let n = def.Metrics.name in
          {
            r with
            failed = r.failed + 1;
            failures = ("metric " ^ n ^ " not measured") :: r.failures;
            values = (n, 0.) :: List.remove_assoc n r.values;
          })
      r
      (if o.trace then Metrics.per_layer else Metrics.end_to_end)
  in
  Option.iter (Spans.write_chrome ctx.spans) o.trace_file;
  Option.iter
    (fun f ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
      output_string oc (Sb_util.Json.to_string (Metrics.to_json r) ^ "\n");
      close_out oc)
    o.out;
  if o.update then
    Reference.update ~workload:name
      (Hashtbl.fold
         (fun k v acc ->
           if String.starts_with ~prefix:(name ^ "/") k then (k, v) :: acc else acc)
         ctx.observed []);
  print_result r m;
  if r.failed = 0 then 0 else 1

(* Each workload in a fresh child process, so memory and lazy
   initialisation are counted per workload. *)
let run_each o argv =
  let rec strip = function
    | "--workload" :: _ :: rest -> strip rest
    | a :: rest -> a :: strip rest
    | [] -> []
  in
  List.fold_left
    (fun code w ->
      let c, out = spawn (("run" :: strip argv) @ [ "--workload"; w ]) in
      print_string out;
      flush stdout;
      max code c)
    0 o.names

(* Every workload at tiny sizes, traced and untraced: every metric named
   in BENCHMARK.json must be printed, and the trace file must parse. *)
let smoke () =
  let module J = Sb_util.Json in
  let names key =
    let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
    match Result.map (J.member key) (J.of_string text) with
    | Ok (Some (J.List l)) ->
      List.filter_map (fun m -> Option.bind (J.member "name" m) J.string_opt) l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let trace_file = Printf.sprintf ".perf-smoke-%s.json" w in
          let code, out =
            spawn [ "run"; "--workload"; w; "--smoke"; "--seed"; "1"; "--trace"; trace;
                    "--trace-file"; trace_file ]
          in
          if code <> 0 then problem "%s trace=%s: exit %d\n%s" w trace code out;
          (match J.of_string (last_line out) with
          | Ok j ->
            let printed =
              match J.member "metrics" j with Some (J.Obj l) -> List.map fst l | _ -> []
            in
            List.iter
              (fun n ->
                if not (List.mem n printed) then
                  problem "%s trace=%s: %s not printed" w trace n)
              (names (if trace = "1" then "per_layer" else "end_to_end"))
          | Error e -> problem "%s trace=%s: result line: %s" w trace e);
          (match
             Result.bind
               (J.of_string (In_channel.with_open_bin trace_file In_channel.input_all))
               (fun j ->
                 match J.member "traceEvents" j with
                 | Some (J.List (_ :: _)) -> Ok ()
                 | _ -> Error "no traceEvents")
           with
          | Ok () -> ()
          | Error e -> problem "%s trace=%s: trace file: %s" w trace e
          | exception Sys_error e -> problem "%s: %s" w e);
          (try Sys.remove trace_file with Sys_error _ -> ()))
        [ "0"; "1" ])
    workloads;
  match !problems with
  | [] ->
    print_endline "perf-smoke: ok";
    0
  | ps ->
    List.iter prerr_endline (List.rev ps);
    1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args ->
      let o = parse_run args in
      if List.length o.names = 1 then run_one o (List.hd o.names) else run_each o args
    | "setup" :: args ->
      let o = parse_run args in
      setup_one o (List.hd o.names)
    | "compare" :: (_ :: _ as files) -> Compare.run ~bench:"BENCHMARK.json" files
    | [ "smoke" ] -> smoke ()
    | _ -> usage ()
  in
  exit code
