let all =
  Simbench.Suite.all @ Simbench.Suite_ext.all
  @ List.map (fun w -> w.Workloads.bench) Workloads.all

let find name =
  let key = String.lowercase_ascii name in
  match
    List.find_opt
      (fun b -> String.lowercase_ascii b.Simbench.Bench.name = key)
      all
  with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "unknown benchmark or workload %S" name)
