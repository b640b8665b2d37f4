(* Self-healing client: reconnect, backoff, resume.

   The plain {!Client} is a single connection that fails fast.  This
   layer wraps one job submission in a retry loop: when the transport
   dies mid-stream (server killed, proxy reset, garbled frame) it
   reconnects with jittered exponential backoff and re-submits *only*
   the cells whose rows it has not yet received, flagged [resume:true]
   under the same job id.  The server's content-addressed store
   guarantees the already-computed cells of a resumed job are answered
   from cache, so a cell is never simulated twice on our account — and
   because we check received rows off a key multiset, a duplicate row
   (replayed by an overlapping delivery) is dropped and counted, never
   surfaced twice. *)

module Json = Sb_util.Json

type config = {
  retries : int;
  backoff : float;
  backoff_max : float;
  jitter : float;
  seed : int;
}

let default_config =
  { retries = 5; backoff = 0.25; backoff_max = 5.0; jitter = 0.25; seed = 7 }

type stats = {
  st_reconnects : int;
  st_rows_retried : int;
  st_duplicates : int;
}

type outcome = { ended : Client.job_end; stats : stats }

(* Cells keyed by their content address.  A multiset: the same spec may
   legitimately appear twice in one submission (the server streams two
   rows), so we track counts, not membership. *)
let key_counts keyed =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (key, _) ->
      Hashtbl.replace counts key
        (1 + try Hashtbl.find counts key with Not_found -> 0))
    keyed;
  counts

(* Rows that still have to arrive, in original submission order. *)
let remaining_cells keyed counts =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (key, spec) ->
      let had = try Hashtbl.find seen key with Not_found -> 0 in
      Hashtbl.replace seen key (had + 1);
      let want = try Hashtbl.find counts key with Not_found -> 0 in
      if had < want then Some spec else None)
    keyed

let backoff_delay cfg rng attempt =
  let base = cfg.backoff *. (2.0 ** float_of_int (attempt - 1)) in
  let base = Float.min base cfg.backoff_max in
  let jitter =
    if cfg.jitter <= 0.0 then 1.0
    else begin
      let frac = float_of_int (Sb_util.Xorshift.int rng 1000) /. 1000.0 in
      1.0 -. cfg.jitter +. (2.0 *. cfg.jitter *. frac)
    end
  in
  Float.max 0.0 (base *. jitter)

let retryable = function
  | Client.Server_gone _ | Client.Connect_failed _ | Client.Protocol_error _ ->
    true
  | Client.Server_error _ -> false

let submit ?(cfg = default_config) ?(on_event = fun _ -> ())
    ?(on_row = fun ~key:_ ~cached:_ ~retried:_ _ -> ()) ~addr ~id ~cells () =
  let rng = Sb_util.Xorshift.create ~seed:cfg.seed in
  let keyed =
    List.map
      (fun spec ->
        let spec = Protocol.canonical spec in
        (Protocol.spec_key spec, spec))
      cells
  in
  let counts = key_counts keyed in
  let reconnects = ref 0 in
  let rows_retried = ref 0 in
  let duplicates = ref 0 in
  let failed_rows = ref 0 in
  let stats () =
    { st_reconnects = !reconnects;
      st_rows_retried = !rows_retried;
      st_duplicates = !duplicates
    }
  in
  let receive ~resumed ~key ~cached cell =
    let want = try Hashtbl.find counts key with Not_found -> 0 in
    if want <= 0 then incr duplicates
    else begin
      Hashtbl.replace counts key (want - 1);
      if resumed then incr rows_retried;
      (match Option.bind (Json.member "status" cell) Json.string_opt with
      | Some "ok" | None -> ()
      | Some _ -> incr failed_rows);
      on_row ~key ~cached ~retried:resumed cell
    end
  in
  let total = List.length keyed in
  let outstanding () = Hashtbl.fold (fun _ n acc -> acc + n) counts 0 in
  (* One attempt: connect, (re-)submit what is still missing, stream. *)
  let attempt_once ~resumed =
    match Client.connect addr with
    | Error e -> Error e
    | Ok client ->
      let cells = remaining_cells keyed counts in
      let result =
        Client.submit ~resume:resumed
          ~on_row:(fun ~key ~cached cell -> receive ~resumed ~key ~cached cell)
          client ~id ~cells
      in
      Client.close client;
      result
  in
  let rec go attempt =
    let resumed = attempt > 0 in
    if resumed then incr reconnects;
    let outcome = attempt_once ~resumed in
    let retry err =
      if outstanding () = 0 then
        (* the failure raced the final Job_done frame: every row is
           already in hand and there is nothing left to resubmit (the
           server rejects an empty resume), so conclude locally *)
        Ok
          { ended = Client.Completed { rows = total; failed = !failed_rows };
            stats = stats ()
          }
      else if attempt >= cfg.retries then Error err
      else begin
        let delay = backoff_delay cfg rng (attempt + 1) in
        on_event
          (Printf.sprintf "%s; reconnect %d/%d in %.2fs"
             (Client.error_message err) (attempt + 1) cfg.retries delay);
        if delay > 0.0 then Unix.sleepf delay;
        go (attempt + 1)
      end
    in
    match outcome with
    | Ok (Client.Completed _) when outstanding () = 0 ->
      (* a resumed job's done frame counts only the re-submitted cells;
         report the whole job's totals instead *)
      let ended =
        Client.Completed { rows = total; failed = !failed_rows }
      in
      Ok { ended; stats = stats () }
    | Ok (Client.Completed _) ->
      (* done frame without every row: the stream was tampered with —
         treat it like a lost connection and resume the remainder *)
      retry
        (Client.Protocol_error
           (Printf.sprintf "job done but %d row(s) missing" (outstanding ())))
    | Ok (Client.Was_cancelled _ as ended) -> Ok { ended; stats = stats () }
    | Ok (Client.Server_bye _ as ended) when outstanding () = 0 ->
      Ok { ended; stats = stats () }
    | Ok (Client.Server_bye reason) ->
      (* graceful shutdown mid-job: a restarted daemon can finish the
         rest from its persistent store, so this retries too *)
      retry
        (Client.Server_gone
           { addr; detail = "server shut down mid-job: " ^ reason })
    | Error err when retryable err -> retry err
    | Error err -> Error err
  in
  go 0
