let schema = "simbench-fault-plan-1"

type t = {
  seed : int;
  mmio_chunks : int;
  storm_chunks : int;
  bus_errors : int list;
  bit_flips : (int * int) list;
  spurious_irqs : int list;
}

(* The scratch arena both architectures' random programs hammer — the
   same window Verify digests, so a flipped bit that survives to the end
   of the run is part of the compared state. *)
let flip_window_len = 16 * 4096

let sorted_unique l = List.sort_uniq compare l

let generate ~seed =
  let rng = Sb_util.Xorshift.create ~seed in
  let mmio_chunks = 4 + Sb_util.Xorshift.int rng 8 in
  let storm_chunks = Sb_util.Xorshift.int rng 4 in
  let n_bus = 1 + Sb_util.Xorshift.int rng 3 in
  let bus_errors =
    sorted_unique
      (List.concat
         (List.map
            (fun _ -> [ Sb_util.Xorshift.int rng mmio_chunks ])
            (List.init n_bus Fun.id)))
  in
  let n_flips = Sb_util.Xorshift.int rng 4 in
  let rec gen_flips n acc =
    if n = 0 then List.rev acc
    else
      let off = Sb_util.Xorshift.int rng flip_window_len in
      let bit = Sb_util.Xorshift.int rng 8 in
      gen_flips (n - 1) ((off, bit) :: acc)
  in
  let bit_flips = gen_flips n_flips [] in
  let n_irqs = Sb_util.Xorshift.int rng 3 in
  let rec gen_irqs n acc =
    if n = 0 then sorted_unique acc
    else gen_irqs (n - 1) ((2 + Sb_util.Xorshift.int rng 30) :: acc)
  in
  let spurious_irqs = gen_irqs n_irqs [] in
  { seed; mmio_chunks; storm_chunks; bus_errors; bit_flips; spurious_irqs }

let to_json t =
  Sb_util.Json.Obj
    [
      ("schema", Sb_util.Json.String schema);
      ("seed", Sb_util.Json.Int t.seed);
      ("mmio_chunks", Sb_util.Json.Int t.mmio_chunks);
      ("storm_chunks", Sb_util.Json.Int t.storm_chunks);
      ( "bus_errors",
        Sb_util.Json.List (List.map (fun n -> Sb_util.Json.Int n) t.bus_errors)
      );
      ( "bit_flips",
        Sb_util.Json.List
          (List.map
             (fun (off, bit) ->
               Sb_util.Json.List [ Sb_util.Json.Int off; Sb_util.Json.Int bit ])
             t.bit_flips) );
      ( "spurious_irqs",
        Sb_util.Json.List
          (List.map (fun n -> Sb_util.Json.Int n) t.spurious_irqs) );
    ]

let ( let* ) = Result.bind

let error fmt = Printf.ksprintf (fun s -> Error s) fmt

let int_field name json =
  match Sb_util.Json.member name json with
  | Some v -> (
    match Sb_util.Json.int_opt v with
    | Some n -> Ok n
    | None -> error "field %S is not an integer" name)
  | None -> error "missing field %S" name

let int_list_field name json =
  match Sb_util.Json.member name json with
  | None -> error "missing field %S" name
  | Some v -> (
    match Sb_util.Json.list_opt v with
    | None -> error "field %S is not a list" name
    | Some items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Sb_util.Json.int_opt item with
          | Some n -> Ok (n :: acc)
          | None -> error "field %S contains a non-integer" name)
        (Ok []) items
      |> Result.map List.rev)

let of_json json =
  let* () =
    match Sb_util.Json.member "schema" json with
    | Some (Sb_util.Json.String s) when s = schema -> Ok ()
    | Some (Sb_util.Json.String s) ->
      error "fault plan has schema %S, expected %S" s schema
    | _ -> error "fault plan is missing its %S schema tag" schema
  in
  let* seed = int_field "seed" json in
  let* mmio_chunks = int_field "mmio_chunks" json in
  let* storm_chunks = int_field "storm_chunks" json in
  let* bus_errors = int_list_field "bus_errors" json in
  let* spurious_irqs = int_list_field "spurious_irqs" json in
  let* bit_flips =
    match Sb_util.Json.member "bit_flips" json with
    | None -> error "missing field %S" "bit_flips"
    | Some v -> (
      match Sb_util.Json.list_opt v with
      | None -> error "field %S is not a list" "bit_flips"
      | Some items ->
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Sb_util.Json.list_opt item with
            | Some [ o; b ] -> (
              match (Sb_util.Json.int_opt o, Sb_util.Json.int_opt b) with
              | Some off, Some bit -> Ok ((off, bit) :: acc)
              | _ -> error "bit_flips entries must be [offset, bit]")
            | _ -> error "bit_flips entries must be [offset, bit]")
          (Ok []) items
        |> Result.map List.rev)
  in
  if mmio_chunks < 0 || storm_chunks < 0 then
    error "chunk counts must be non-negative"
  else
    Ok { seed; mmio_chunks; storm_chunks; bus_errors; bit_flips; spurious_irqs }

let of_string s =
  let* json = Sb_util.Json.of_string s in
  of_json json

let to_string t = Sb_util.Json.to_string (to_json t)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string t);
      output_char oc '\n')

let load path = Result.bind (Sb_util.Json.of_file path) of_json
