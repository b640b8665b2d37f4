(* In-memory span recorder for --trace-file.  Spans are kept in memory
   while the benchmark runs and written out once at the end as Chrome
   trace-event JSON (chrome://tracing, Perfetto).  No metric is computed
   from them. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;  (** host seconds *)
  stop : float;
  derived : bool;
      (** duration taken from a {!Sb_sim.Run_result} field rather than
          timed here; the position inside its parent is approximate *)
  lane : int;  (** trace-viewer row, e.g. one per serve connection *)
  args : (string * string) list;
}

type t = { mutable next : int; mutable spans : span list }

let create () = { next = 1; spans = [] }
let now = Unix.gettimeofday

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ~id ?(parent = 0) ?(derived = false) ?(lane = 0) ?(args = [])
    name ~start ~stop =
  t.spans <- { id; parent; name; start; stop; derived; lane; args } :: t.spans

let add t ?parent ?derived ?lane ?args name ~start ~stop =
  let id = fresh t in
  record t ~id ?parent ?derived ?lane ?args name ~start ~stop;
  id

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

let to_chrome_json t =
  let module J = Sb_util.Json in
  let all = spans t in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity all
  in
  let us x = J.Float (x *. 1e6) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String (if s.derived then "derived" else "timed"));
        ("ph", J.String "X");
        ("ts", us (s.start -. origin));
        ("dur", us (duration s));
        ("pid", J.Int 1);
        ("tid", J.Int s.lane);
        ( "args",
          J.Obj
            ([
               ("id", J.Int s.id);
               ("parent", J.Int s.parent);
               ("derived", J.Bool s.derived);
             ]
            @ List.map (fun (k, v) -> (k, J.String v)) s.args) );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event all));
      ("displayTimeUnit", J.String "ms");
    ]

let write_chrome t path =
  let oc = open_out path in
  output_string oc (Sb_util.Json.to_string (to_chrome_json t));
  output_char oc '\n';
  close_out oc
