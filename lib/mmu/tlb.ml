type entry = { vpn : int; ppn : int; ap : int; xn : bool; asid : int }

type t = { slots : entry option array; mask : int }

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Tlb.create: entries must be a positive power of two";
  { slots = Array.make entries None; mask = entries - 1 }

(* mix the ASID into the index so address spaces do not contend for the
   same direct-mapped slot *)
let slot_index t ~vpn ~asid = (vpn lxor (asid * 0x9E3779B1)) land t.mask

let lookup t ~vpn ~asid =
  match t.slots.(slot_index t ~vpn ~asid) with
  | Some e as hit when e.vpn = vpn && e.asid = asid -> hit
  | _ -> None

let insert t entry =
  t.slots.(slot_index t ~vpn:entry.vpn ~asid:entry.asid) <- Some entry

let invalidate_page t ~vpn ~asid =
  let i = slot_index t ~vpn ~asid in
  match t.slots.(i) with
  | Some e when e.vpn = vpn && e.asid = asid -> t.slots.(i) <- None
  | _ -> ()

let flush t = Array.fill t.slots 0 (Array.length t.slots) None
