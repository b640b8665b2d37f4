(* State shared by one workload run: its inputs (seeded generator, time
   budget), the span recorder, the scratch directory and the output
   check. *)

type t = {
  workload : string;
  seconds : float;
  traced : bool;
  smoke : bool;  (** tiny sizes, for the perf-smoke alias *)
  rng : Sb_util.Xorshift.t;
  spans : Spans.t;
  work : string;  (** scratch directory inside the checkout *)
  reference : (string, int) Hashtbl.t option;  (** [None] when regenerating *)
  observed : (string, int) Hashtbl.t;  (** kernel_insns of every key *)
  perf : (string * bool, string * Sb_sim.Perf.t) Hashtbl.t;
      (** kernel-phase counters of each distinct (key, warm) cell, with its
          engine family *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.failures < 10 then t.failures <- msg :: t.failures

(* One attempted operation whose output is [kernel_insns] for [key]: it
   must agree with every earlier result for the key and with the reference
   file. *)
let check t ~key result =
  t.attempted <- t.attempted + 1;
  match result with
  | Error msg -> fail t (key ^ ": " ^ msg)
  | Ok insns -> (
    (match Hashtbl.find_opt t.observed key with
    | Some v when v <> insns ->
      fail t (Printf.sprintf "%s: kernel_insns %d, earlier %d" key insns v)
    | Some _ -> ()
    | None -> Hashtbl.replace t.observed key insns);
    match t.reference with
    | Some r -> (
      match Hashtbl.find_opt r key with
      | Some v when v = insns -> ()
      | Some v ->
        fail t (Printf.sprintf "%s: kernel_insns %d, reference %d" key insns v)
      | None -> fail t (key ^ ": no entry in " ^ Reference.path))
    | None -> ())

(* Operations that never produced a result. *)
let missing t n msg =
  t.attempted <- t.attempted + n;
  for _ = 1 to n do
    fail t msg
  done

(* Repeat [pass] (given its number, from 1) while the time budget lasts.
   The first pass always runs; another starts only if a pass as long as
   the last one still ends within the budget, so every pass is complete
   and every input is run the same number of times.  Returns the passes'
   results in order. *)
let passes t pass =
  let start = Spans.now () in
  let rec go n acc =
    let t0 = Spans.now () in
    let r = pass n in
    let now = Spans.now () in
    if now -. start +. (now -. t0) <= t.seconds then go (n + 1) (r :: acc)
    else List.rev (r :: acc)
  in
  go 1 []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Peak resident set of [pid] ("self" for this process), in MiB. *)
let max_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let shuffled rng l =
  let a = Array.of_list l in
  Sb_util.Xorshift.shuffle rng a;
  Array.to_list a
