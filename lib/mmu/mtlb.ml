(* Host-side micro-TLB: a direct-mapped (virtual page -> host byte offset)
   cache in front of the engine's architectural page cache.  An entry is a
   proof that, at fill time, the translation (vpn, asid, priv, kind) was
   walked, permitted, and landed on a page wholly resident in flat RAM —
   so a hit may read or write Phys_mem without bounds checks or bus
   dispatch.  The access kind is not tagged: engines keep one instance per
   kind (read / write / execute), which keeps the probe to two compares. *)

type t = {
  keys : int array;  (* packed (priv, asid, vpn); -1 = empty *)
  bases : int array;  (* host byte offset of the page base in flat RAM *)
  gens : int array;  (* generation the entry was filled under *)
  mask : int;
  mutable gen : int;
}

let vpn_bits = 20
let vpn_mask = (1 lsl vpn_bits) - 1

(* a 32-bit VA has at most 2^20 pages, so asid and priv pack above it *)
let key ~vpn ~asid ~priv = ((((asid lsl 1) lor priv) lsl vpn_bits) lor vpn)

let create ~entries =
  if entries <= 0 || entries land (entries - 1) <> 0 then
    invalid_arg "Mtlb.create: entries must be a positive power of two";
  {
    keys = Array.make entries (-1);
    bases = Array.make entries 0;
    gens = Array.make entries (-1);
    mask = entries - 1;
    gen = 0;
  }

let probe t ~vpn ~asid ~priv =
  let i = vpn land t.mask in
  if
    Array.unsafe_get t.keys i = key ~vpn ~asid ~priv
    && Array.unsafe_get t.gens i = t.gen
  then Array.unsafe_get t.bases i
  else -1

let fill t ~vpn ~asid ~priv ~base =
  let i = vpn land t.mask in
  t.keys.(i) <- key ~vpn ~asid ~priv;
  t.bases.(i) <- base;
  t.gens.(i) <- t.gen

let invalidate_page t ~vpn =
  (* any ASID, any privilege: conservative over-invalidation is always
     safe, and TLBIMVA is rare enough that precision does not pay *)
  let i = vpn land t.mask in
  if t.keys.(i) >= 0 && t.keys.(i) land vpn_mask = vpn then t.keys.(i) <- -1

let flush t = t.gen <- t.gen + 1
