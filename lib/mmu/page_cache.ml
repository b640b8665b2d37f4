type entry = { vpn : int; ppn : int; ap : int; xn : bool; asid : int }

(* A slot holds the entry's own option, which a hit returns as is, and
   the generation it was filled under sits in a parallel array: a hit
   allocates nothing. *)
type t = {
  l1 : entry option array;
  l1_gen : int array;
  l1_mask : int;
  l2 : entry option array;  (* empty array when disabled *)
  l2_gen : int array;
  l2_mask : int;
  lazy_flush : bool;
  mutable gen : int;
}

let check_pow2 what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Page_cache: %s must be a positive power of two" what)

let create ~l1_entries ~l2_entries ~lazy_flush =
  check_pow2 "l1_entries" l1_entries;
  if l2_entries <> 0 then check_pow2 "l2_entries" l2_entries;
  {
    l1 = Array.make l1_entries None;
    l1_gen = Array.make l1_entries 0;
    l1_mask = l1_entries - 1;
    l2 = Array.make l2_entries None;
    l2_gen = Array.make l2_entries 0;
    l2_mask = l2_entries - 1;
    lazy_flush;
    gen = 0;
  }

(* mix the ASID into the index so address spaces do not contend for the
   same direct-mapped slot *)
let[@inline] mix ~vpn ~asid = vpn lxor (asid * 0x9E3779B1)

let[@inline] lookup_l1 t ~vpn ~asid =
  let i = mix ~vpn ~asid land t.l1_mask in
  match Array.unsafe_get t.l1 i with
  | Some e as hit
    when e.vpn = vpn && e.asid = asid && Array.unsafe_get t.l1_gen i = t.gen ->
    hit
  | _ -> None

(* [slot] is [Some e]: storing the option itself lets an entry move
   between levels without being wrapped again *)
let set_l1 t (slot : entry option) ~vpn ~asid =
  let i = mix ~vpn ~asid land t.l1_mask in
  t.l1.(i) <- slot;
  t.l1_gen.(i) <- t.gen

let lookup_l2 t ~vpn ~asid =
  if Array.length t.l2 = 0 then None
  else
    let i = mix ~vpn ~asid land t.l2_mask in
    match t.l2.(i) with
    | Some e as hit when e.vpn = vpn && e.asid = asid && t.l2_gen.(i) = t.gen ->
      set_l1 t hit ~vpn ~asid;
      hit
    | _ -> None

let demote t (slot : entry option) ~vpn ~asid =
  if Array.length t.l2 > 0 then begin
    let i = mix ~vpn ~asid land t.l2_mask in
    t.l2.(i) <- slot;
    t.l2_gen.(i) <- t.gen
  end

(* On L1 conflict the displaced entry moves to L2; callers use [insert]
   directly after a walk, so wire the demotion here.  (An L2 hit promotes
   with [set_l1] and demotes nothing.) *)
let insert t e =
  let i = mix ~vpn:e.vpn ~asid:e.asid land t.l1_mask in
  (match t.l1.(i) with
  | Some old as displaced
    when t.l1_gen.(i) = t.gen && (old.vpn <> e.vpn || old.asid <> e.asid) ->
    demote t displaced ~vpn:old.vpn ~asid:old.asid
  | _ -> ());
  set_l1 t (Some e) ~vpn:e.vpn ~asid:e.asid

let fill t ~vpn ~asid (m : Walker.mapping) =
  let e =
    { vpn; ppn = m.Walker.pa_page lsr 12; ap = m.Walker.ap; xn = m.Walker.xn; asid }
  in
  insert t e;
  e

let invalidate_page t ~vpn ~asid =
  let i1 = mix ~vpn ~asid land t.l1_mask in
  (match t.l1.(i1) with
  | Some e when e.vpn = vpn && e.asid = asid -> t.l1.(i1) <- None
  | _ -> ());
  if Array.length t.l2 > 0 then begin
    let i2 = mix ~vpn ~asid land t.l2_mask in
    match t.l2.(i2) with
    | Some e when e.vpn = vpn && e.asid = asid -> t.l2.(i2) <- None
    | _ -> ()
  end

let flush t =
  if t.lazy_flush then t.gen <- t.gen + 1
  else begin
    Array.fill t.l1 0 (Array.length t.l1) None;
    Array.fill t.l2 0 (Array.length t.l2) None
  end
