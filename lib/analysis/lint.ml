open Simbench

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  region : string;
  loc : Cfg.loc option;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let render f =
  let where =
    match f.loc with
    | Some l -> " at " ^ Cfg.string_of_loc l
    | None -> ""
  in
  Printf.sprintf "%s[%s] %s%s: %s" (severity_name f.severity) f.rule f.region
    where f.message

let errors = List.filter (fun f -> f.severity = Error)

let reg_names = [| "v0"; "v1"; "v2"; "v3"; "v4"; "sp"; "lr" |]

let reg_name r =
  if r >= 0 && r < Array.length reg_names then reg_names.(r)
  else Printf.sprintf "r%d" r

let sort_findings fs =
  List.stable_sort
    (fun a b ->
      let key f = ((match f.loc with Some l -> l.Cfg.index | None -> -1), f.rule) in
      compare (key a) (key b))
    fs

(* ------------------------------------------------------------------ *)
(* Whole-program rules                                                  *)
(* ------------------------------------------------------------------ *)

let num_regs = Array.length reg_names
let all_regs_mask = (1 lsl num_regs) - 1

let mask_of regs =
  List.fold_left
    (fun m r -> if r >= 0 && r < num_regs then m lor (1 lsl r) else m)
    0 regs

let lint_program ?(roots = []) program =
  let g = Cfg.build program in
  let nb = Array.length g.Cfg.blocks in
  let findings = ref [] in
  let emit ?loc ?(region = "program") ~rule ~severity message =
    findings := { rule; severity; region; loc; message } :: !findings
  in
  (* undefined-label: every reference must resolve *)
  List.iter
    (fun (l, _kind, idx) ->
      if not (Hashtbl.mem g.Cfg.label_def l) then
        emit ~loc:(Cfg.loc g idx) ~rule:"undefined-label" ~severity:Error
          (Printf.sprintf "reference to undefined label %S" l))
    g.Cfg.refs;
  (* duplicate-label *)
  List.iter
    (fun (l, idx) ->
      let first = Hashtbl.find g.Cfg.label_def l in
      emit ~loc:(Cfg.loc g idx) ~rule:"duplicate-label" ~severity:Error
        (Printf.sprintf "label %S already defined at op %d" l first))
    g.Cfg.dup_labels;
  let reach = Cfg.reachable ~roots g in
  (* unreachable-code: code blocks no root or edge reaches *)
  Array.iter
    (fun b ->
      if (not reach.(b.Cfg.id)) && (not b.Cfg.data_only) && b.Cfg.body <> []
      then
        emit
          ~loc:(Cfg.loc g (List.hd b.Cfg.body))
          ~rule:"unreachable-code" ~severity:Warning
          "code is unreachable from the entry, any address-taken label, or \
           any root")
    g.Cfg.blocks;
  (* fall-off-end / fall-into-data *)
  let can_fall b =
    match b.Cfg.term with
    | Cfg.T_fall | Cfg.T_cond _ | Cfg.T_call _ | Cfg.T_call_reg -> true
    | _ -> false
  in
  let align_only b =
    List.for_all
      (fun j -> match g.Cfg.ops.(j) with Pasm.Align _ | Pasm.Org _ -> true | _ -> false)
      b.Cfg.body
  in
  let rec landing id =
    if id >= nb then `Off_end
    else
      let b = g.Cfg.blocks.(id) in
      if not b.Cfg.data_only then `Code
      else if align_only b then landing (id + 1)
      else `Data
  in
  Array.iter
    (fun b ->
      if reach.(b.Cfg.id) && (not b.Cfg.data_only) && can_fall b then begin
        let loc =
          match List.rev b.Cfg.body with
          | j :: _ -> Cfg.loc g j
          | [] -> Cfg.loc g b.Cfg.start
        in
        match landing (b.Cfg.id + 1) with
        | `Code -> ()
        | `Off_end ->
          emit ~loc ~rule:"fall-off-end" ~severity:Error
            "control can run past the end of the program without Halt, Ret \
             or Eret"
        | `Data ->
          emit ~loc ~rule:"fall-into-data" ~severity:Error
            "control can fall through into data words"
      end)
    g.Cfg.blocks;
  (* use-before-def: forward must-defined dataflow (meet = intersection).
     The entry starts with nothing defined; hardware-entered roots and
     address-taken blocks start with everything defined. *)
  let inb = Array.make nb all_regs_mask in
  let visited = Array.make nb false in
  let wl = Queue.create () in
  let push id v =
    let nv = (if visited.(id) then inb.(id) else all_regs_mask) land v in
    if (not visited.(id)) || nv <> inb.(id) then begin
      visited.(id) <- true;
      inb.(id) <- nv;
      Queue.add id wl
    end
  in
  if nb > 0 then push 0 0;
  Array.iter
    (fun b -> if b.Cfg.address_taken then push b.Cfg.id all_regs_mask)
    g.Cfg.blocks;
  List.iter
    (fun l ->
      match Cfg.target g l with
      | Some t -> push t all_regs_mask
      | None -> ())
    roots;
  while not (Queue.is_empty wl) do
    let id = Queue.pop wl in
    let b = g.Cfg.blocks.(id) in
    let out =
      List.fold_left
        (fun s j -> s lor mask_of (Cfg.defs g.Cfg.ops.(j)))
        inb.(id) b.Cfg.body
    in
    List.iter (fun s -> push s out) (Cfg.succs g b)
  done;
  let ubd_seen = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      if visited.(b.Cfg.id) then begin
        let set = ref inb.(b.Cfg.id) in
        List.iter
          (fun j ->
            let op = g.Cfg.ops.(j) in
            List.iter
              (fun r ->
                if
                  r >= 0 && r < num_regs
                  && !set land (1 lsl r) = 0
                  && not (Hashtbl.mem ubd_seen (j, r))
                then begin
                  Hashtbl.add ubd_seen (j, r) ();
                  emit ~loc:(Cfg.loc g j) ~rule:"use-before-def"
                    ~severity:Error
                    (Printf.sprintf
                       "%s may be read before any definition reaches this op"
                       (reg_name r))
                end)
              (Cfg.uses op);
            set := !set lor mask_of (Cfg.defs op))
          b.Cfg.body
      end)
    g.Cfg.blocks;
  (* lr-clobber: from every Call target, make sure no path reaches a Ret
     with lr still holding an inner call's return address *)
  let call_targets =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun b ->
        match b.Cfg.term with
        | Cfg.T_call l -> (
          match Cfg.target g l with
          | Some t -> Hashtbl.replace tbl t ()
          | None -> ())
        | _ -> ())
      g.Cfg.blocks;
    Hashtbl.fold (fun t () acc -> t :: acc) tbl []
  in
  let lr_reported = Hashtbl.create 8 in
  let intact = 1 and clobbered = 2 in
  List.iter
    (fun root ->
      let st = Array.make nb 0 in
      let wl = Queue.create () in
      let push id v =
        let nv = st.(id) lor v in
        if nv <> st.(id) then begin
          st.(id) <- nv;
          Queue.add id wl
        end
      in
      push root intact;
      while not (Queue.is_empty wl) do
        let id = Queue.pop wl in
        let b = g.Cfg.blocks.(id) in
        let s = ref st.(id) in
        List.iter
          (fun j ->
            match g.Cfg.ops.(j) with
            | Pasm.Call _ | Pasm.Call_reg _ -> ()  (* modelled on the edge *)
            | op -> if List.mem Pasm.lr (Cfg.defs op) then s := intact)
          b.Cfg.body;
        (match b.Cfg.term with
        | Cfg.T_ret when !s land clobbered <> 0 -> (
          match List.rev b.Cfg.body with
          | j :: _ when not (Hashtbl.mem lr_reported j) ->
            Hashtbl.add lr_reported j ();
            emit ~loc:(Cfg.loc g j) ~rule:"lr-clobber" ~severity:Error
              (Printf.sprintf
                 "function entered at %S can reach this Ret with lr \
                  clobbered by an inner call"
                 (String.concat "/" g.Cfg.blocks.(root).Cfg.labels))
          | _ -> ())
        | _ -> ());
        match b.Cfg.term with
        | Cfg.T_call _ | Cfg.T_call_reg -> (
          (* the callee is analysed as its own root; past the call, lr
             holds the inner return address *)
          match Cfg.fall g b with
          | Some f -> push f clobbered
          | None -> ())
        | _ -> List.iter (fun succ -> push succ !s) (Cfg.succs g b)
      done)
    call_targets;
  (* unused-label *)
  let used = Hashtbl.create 64 in
  List.iter (fun (l, _, _) -> Hashtbl.replace used l ()) g.Cfg.refs;
  List.iter (fun l -> Hashtbl.replace used l ()) roots;
  if nb > 0 then
    List.iter (fun l -> Hashtbl.replace used l ()) g.Cfg.blocks.(0).Cfg.labels;
  Hashtbl.iter
    (fun l idx ->
      if not (Hashtbl.mem used l) then
        emit ~loc:(Cfg.loc g idx) ~rule:"unused-label" ~severity:Warning
          (Printf.sprintf "label %S is never referenced" l))
    g.Cfg.label_def;
  sort_findings !findings

(* ------------------------------------------------------------------ *)
(* Phase-scoped convention rules                                        *)
(* ------------------------------------------------------------------ *)

(* v4 is the runtime's iteration counter: nothing in a benchmark body may
   write it. *)
let v4_rule ~region ops =
  let g = Cfg.build ops in
  let findings = ref [] in
  Array.iteri
    (fun j op ->
      if List.mem Pasm.v4 (Cfg.defs op) then
        findings :=
          {
            rule = "v4-clobber";
            severity = Error;
            region;
            loc = Some (Cfg.loc g j);
            message = "writes the runtime iteration counter v4";
          }
          :: !findings)
    g.Cfg.ops;
  List.rev !findings

(* v3 is the exception handlers' scratch register: any faulting op may
   clobber it, so no value may be live in v3 across one.  Advisory
   ([severity = Warning]) for Application-category programs, which run fully
   mapped and take no synchronous faults. *)
let v3_rule ~region ~severity sub =
  let g = Cfg.build sub in
  let nb = Array.length g.Cfg.blocks in
  let live_in = Array.make nb false in
  let live_out = Array.make nb false in
  let transfer out body =
    List.fold_left
      (fun live j ->
        let op = g.Cfg.ops.(j) in
        let live = if List.mem Pasm.v3 (Cfg.defs op) then false else live in
        if List.mem Pasm.v3 (Cfg.uses op) then true else live)
      out (List.rev body)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = nb - 1 downto 0 do
      let b = g.Cfg.blocks.(id) in
      let out = List.exists (fun s -> live_in.(s)) (Cfg.succs g b) in
      let inl = transfer out b.Cfg.body in
      if out <> live_out.(id) || inl <> live_in.(id) then begin
        live_out.(id) <- out;
        live_in.(id) <- inl;
        changed := true
      end
    done
  done;
  let findings = ref [] in
  Array.iter
    (fun b ->
      ignore
        (List.fold_left
           (fun live j ->
             let op = g.Cfg.ops.(j) in
             let defs_v3 = List.mem Pasm.v3 (Cfg.defs op) in
             if Cfg.faults op && live && not defs_v3 then
               findings :=
                 {
                   rule = "v3-across-fault";
                   severity;
                   region;
                   loc = Some (Cfg.loc g j);
                   message =
                     "a value is live in the exception-handler scratch \
                      register v3 across this faulting op";
                 }
                 :: !findings;
             let live = if defs_v3 then false else live in
             if List.mem Pasm.v3 (Cfg.uses op) then true else live)
           live_out.(b.Cfg.id)
           (List.rev b.Cfg.body)))
    g.Cfg.blocks;
  List.rev !findings

(* sp must balance: back to its entry value at the end of the kernel phase
   and at every function return. *)
type sp_off = Known of int | Top

let sp_rule ~region ~sentinel sub =
  let g = Cfg.build sub in
  let nb = Array.length g.Cfg.blocks in
  let meet a b =
    match (a, b) with Known x, Known y when x = y -> Known x | _ -> Top
  in
  let step off op =
    match op with
    | Pasm.Alu (Sb_isa.Uop.Add, d, s, Pasm.I k) when d = Pasm.sp && s = Pasm.sp
      -> (
      match off with Known o -> Known (o + k) | Top -> Top)
    | Pasm.Alu (Sb_isa.Uop.Sub, d, s, Pasm.I k) when d = Pasm.sp && s = Pasm.sp
      -> (
      match off with Known o -> Known (o - k) | Top -> Top)
    | op when List.mem Pasm.sp (Cfg.defs op) -> Top
    | _ -> off
  in
  let st = Array.make nb None in
  let wl = Queue.create () in
  let push id v =
    match st.(id) with
    | None ->
      st.(id) <- Some v;
      Queue.add id wl
    | Some old ->
      let nv = meet old v in
      if nv <> old then begin
        st.(id) <- Some nv;
        Queue.add id wl
      end
  in
  if nb > 0 then push 0 (Known 0);
  (* functions — whether entered by Call or through an address table — start
     with a fresh, balanced frame *)
  Array.iter
    (fun b ->
      (match b.Cfg.term with
      | Cfg.T_call l -> (
        match Cfg.target g l with Some t -> push t (Known 0) | None -> ())
      | _ -> ());
      if b.Cfg.address_taken && not b.Cfg.data_only then push b.Cfg.id (Known 0))
    g.Cfg.blocks;
  while not (Queue.is_empty wl) do
    let id = Queue.pop wl in
    let b = g.Cfg.blocks.(id) in
    match st.(id) with
    | None -> ()
    | Some inv -> (
      let out =
        List.fold_left (fun o j -> step o g.Cfg.ops.(j)) inv b.Cfg.body
      in
      match b.Cfg.term with
      | Cfg.T_call _ | Cfg.T_call_reg -> (
        (* intraprocedural: a balanced callee returns sp unchanged *)
        match Cfg.fall g b with Some f -> push f out | None -> ())
      | _ -> List.iter (fun s -> push s out) (Cfg.succs g b))
  done;
  let findings = ref [] in
  let report j what off =
    let message =
      match off with
      | Known d ->
        Printf.sprintf "%s with sp displaced by %d bytes" what d
      | Top -> Printf.sprintf "%s with a statically unknown sp" what
    in
    findings :=
      {
        rule = "sp-imbalance";
        severity = Error;
        region;
        loc = Some (Cfg.loc g j);
        message;
      }
      :: !findings
  in
  Array.iter
    (fun b ->
      match st.(b.Cfg.id) with
      | None -> ()
      | Some inv ->
        let off = ref inv in
        List.iter
          (fun j ->
            if j = sentinel && !off <> Known 0 then
              report j "the kernel phase ends" !off;
            off := step !off g.Cfg.ops.(j))
          b.Cfg.body;
        if b.Cfg.term = Cfg.T_ret && !off <> Known 0 then
          match List.rev b.Cfg.body with
          | j :: _ -> report j "this function returns" !off
          | [] -> ())
    g.Cfg.blocks;
  List.rev !findings

let lint_bench ~support ?(platform = Platform.sbp_ref) bench =
  let program = Rt.ops ~support ~platform ~bench in
  let prog = lint_program ~roots:Rt.vector_slot_labels program in
  let body = bench.Bench.body ~support ~platform in
  (* the kernel phase flows into a sentinel Halt, then the functions it
     calls; this sub-program carries the phase-scoped rules *)
  let sub = body.Bench.kernel @ [ Pasm.Halt ] @ body.Bench.functions in
  let sentinel = List.length body.Bench.kernel in
  let handler_ops =
    List.concat_map (fun (_vector, ops) -> ops) body.Bench.handlers
  in
  (* Application-category programs (the SPEC-analog workloads) run fully
     mapped and take no synchronous faults, so the v3 scratch-register
     convention is advisory for them. *)
  let v3_severity =
    if bench.Bench.category = Category.Application then Warning else Error
  in
  prog
  @ v4_rule ~region:"kernel" body.Bench.kernel
  @ v4_rule ~region:"functions" body.Bench.functions
  @ v4_rule ~region:"handler" handler_ops
  @ v3_rule ~region:"kernel" ~severity:v3_severity sub
  @ sp_rule ~region:"kernel" ~sentinel sub

let lint_suite ?benches ?(arches = Engines.all_arches) () =
  let benches =
    match benches with Some b -> b | None -> Suite.all @ Suite_ext.all
  in
  List.concat_map
    (fun arch ->
      let support = Engines.support arch in
      List.map
        (fun bench ->
          ( bench.Bench.name,
            Support.name support,
            lint_bench ~support bench ))
        benches)
    arches

let json_schema = "simbench-lint-json-1"

let to_json ~errors ~warnings lints pass_violations =
  let open Sb_util.Json in
  let finding f =
    let loc =
      match f.loc with
      | None -> []
      | Some l -> (
        ("op", Int l.Cfg.index)
        ::
        (match l.Cfg.context with
        | Some label -> [ ("label", String label); ("offset", Int l.Cfg.offset) ]
        | None -> []))
    in
    Obj
      ([
         ("rule", String f.rule);
         ("severity", String (severity_name f.severity));
         ("region", String f.region);
       ]
      @ loc
      @ [ ("message", String f.message) ])
  in
  let violation (bench, arch, (v : Ir_check.violation)) =
    Obj
      [
        ("bench", String bench);
        ("arch", String arch);
        ("pass", String v.Ir_check.pass);
        ( "version",
          match v.Ir_check.version with Some ver -> String ver | None -> Null );
        ("va", Int v.Ir_check.va);
        ("insn", Int v.Ir_check.index);
        ("message", String (Ir_check.message v));
      ]
  in
  Obj
    [
      ("schema", String json_schema);
      ( "lints",
        List
          (List.map
             (fun (bench, arch, fs) ->
               Obj
                 [
                   ("bench", String bench);
                   ("arch", String arch);
                   ("findings", List (List.map finding fs));
                 ])
             lints) );
      ("pass_violations", List (List.map violation pass_violations));
      ("errors", Int errors);
      ("warnings", Int warnings);
    ]
