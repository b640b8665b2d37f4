(* Expected kernel_insns per (workload, arch, engine, cell), the output
   check of every grid cell and of every serve cell.  Simulated
   instruction counts are deterministic, so they are compared exactly;
   host times are never part of the check. *)

module J = Sb_util.Json

let key ~workload ~arch ~engine ~cell =
  String.concat "/" [ workload; arch; engine; cell ]

let path = "bench/perf/reference.json"

let load () =
  if not (Sys.file_exists path) then Error (path ^ ": missing")
  else
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.of_string text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok (J.Obj fields) ->
      let t = Hashtbl.create (List.length fields) in
      List.iter
        (fun (k, v) -> Option.iter (Hashtbl.replace t k) (J.int_opt v))
        fields;
      Ok t
    | Ok _ -> Error (path ^ ": expected an object of key -> kernel_insns")

(* Merge [observed] into the file, replacing the entries of [workload]. *)
let update ~workload observed =
  let old = match load () with Ok t -> t | Error _ -> Hashtbl.create 1 in
  let prefix = workload ^ "/" in
  let keep =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix k then acc else (k, v) :: acc)
      old []
  in
  let all = List.sort_uniq compare (keep @ observed) in
  let oc = open_out_bin path in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "  %s: %d%s\n" (J.to_string (J.String k)) v
        (if i = List.length all - 1 then "" else ","))
    all;
  output_string oc "}\n";
  close_out oc
