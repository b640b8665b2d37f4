type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [data] lives outside the OCaml heap (see [create]).  [dirty] holds one
   byte per page: non-zero once any write function has stored into the
   page since the last [clear].  Every store goes through this module ([t]
   is abstract), so an unmarked page is all zero; [clear] and [is_zero]
   rely on that and touch only marked pages. *)
type t = { data : buf; dirty : Bytes.t; size : int; hi_mask : int }

exception Out_of_range of int

let page_shift = 12
let page_size = 1 lsl page_shift

(* A private mapping of /dev/zero: zero pages that become resident, one
   host page at a time, only when first written, and that the GC neither
   scans nor paces its cycles against.  [Unix.map_file] grows a file
   shorter than the mapping with a one-byte write, which /dev/zero
   accepts only on a descriptor open for writing.  The mapping outlives
   the descriptor, and the bigarray's finaliser unmaps it.  Where the
   device cannot be opened or mapped, an ordinary bigarray filled with
   [zero] has the same contents, and is resident from the start. *)
let zero_buf kind zero n =
  match
    let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.map_file fd kind Bigarray.c_layout false [| n |])
  with
  | mapped -> Bigarray.array1_of_genarray mapped
  | exception Unix.Unix_error _ ->
    let data = Bigarray.Array1.create kind Bigarray.c_layout n in
    Bigarray.Array1.fill data zero;
    data

let create ~size =
  (* power-of-two sizes (every shipped machine) get a single-compare bounds
     test: any address bit at or above the size bit — including the sign
     bit of a negative address — lands in [hi_mask] *)
  let hi_mask =
    if size > 0 && size land (size - 1) = 0 then lnot (size - 1) else 0
  in
  {
    data = zero_buf Bigarray.char '\000' size;
    dirty = Bytes.make ((size + page_size - 1) lsr page_shift) '\000';
    size;
    hi_mask;
  }

let size t = t.size

let check t addr width =
  if t.hi_mask <> 0 then begin
    if (addr lor (addr + width - 1)) land t.hi_mask <> 0 then
      (* [addr + width - 1] underflows for width 0; an empty access in
         range ([0, size]) is still fine, matching the two-compare form *)
      if not (width = 0 && addr >= 0 && addr <= t.size) then
        raise (Out_of_range addr)
  end
  else if addr < 0 || addr + width > t.size then raise (Out_of_range addr)

let mark t addr = Bytes.unsafe_set t.dirty (addr lsr page_shift) '\001'

let[@inline] get b addr = Bigarray.Array1.unsafe_get (b : buf) addr
let[@inline] set b addr c = Bigarray.Array1.unsafe_set (b : buf) addr c

(* Unchecked accessors for callers that have already validated the window
   [addr, addr + width) — the DBT's micro-TLB fast path proves a whole page
   resident at fill time and then skips [check] per access. *)

let unsafe_read8 t addr = Char.code (get t.data addr)

let unsafe_read16 t addr =
  let b = t.data in
  Char.code (get b addr) lor (Char.code (get b (addr + 1)) lsl 8)

let unsafe_read32 t addr =
  let b = t.data in
  Char.code (get b addr)
  lor (Char.code (get b (addr + 1)) lsl 8)
  lor (Char.code (get b (addr + 2)) lsl 16)
  lor (Char.code (get b (addr + 3)) lsl 24)

let unsafe_write8 t addr v =
  mark t addr;
  set t.data addr (Char.unsafe_chr (v land 0xFF))

(* a wide write may straddle two pages: marking its first and last byte's
   pages costs one store more than a boundary test would, and no branch *)
let unsafe_write16 t addr v =
  mark t addr;
  mark t (addr + 1);
  let b = t.data in
  set b addr (Char.unsafe_chr (v land 0xFF));
  set b (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let unsafe_write32 t addr v =
  mark t addr;
  mark t (addr + 3);
  let b = t.data in
  set b addr (Char.unsafe_chr (v land 0xFF));
  set b (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  set b (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  set b (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let read8 t addr =
  check t addr 1;
  unsafe_read8 t addr

(* recompose from unchecked byte reads, like [read32] *)
let read16 t addr =
  check t addr 2;
  unsafe_read16 t addr

(* recompose from unchecked byte reads: a boxed [Int32] per call would
   allocate on the hottest path in the whole simulator (every guest
   load/store and every code fetch lands here) *)
let read32 t addr =
  check t addr 4;
  unsafe_read32 t addr

let write8 t addr v =
  check t addr 1;
  unsafe_write8 t addr v

let write16 t addr v =
  check t addr 2;
  unsafe_write16 t addr v

let write32 t addr v =
  check t addr 4;
  unsafe_write32 t addr v

(* The stdlib has no blit between [Bytes] and a bigarray, so the copies
   and the page fill below move 8 bytes per step (the [int64] stays
   unboxed between the load and the store) and finish with a byte loop. *)
external bytes_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external buf_get64 : buf -> int -> int64 = "%caml_bigstring_get64u"
external buf_set64 : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"

let load t ~addr image =
  let len = Bytes.length image in
  check t addr len;
  if len > 0 then
    Bytes.fill t.dirty (addr lsr page_shift)
      (((addr + len - 1) lsr page_shift) - (addr lsr page_shift) + 1)
      '\001';
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    buf_set64 t.data (addr + !i) (bytes_get64 image !i);
    i := !i + 8
  done;
  for i = words to len - 1 do
    set t.data (addr + i) (Bytes.unsafe_get image i)
  done

let blit_out t ~addr ~len =
  check t addr len;
  let out = Bytes.create len in
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    bytes_set64 out !i (buf_get64 t.data (addr + !i));
    i := !i + 8
  done;
  for i = words to len - 1 do
    Bytes.unsafe_set out i (get t.data (addr + i))
  done;
  out

(* Unchecked 8-byte loads (the [int64] stays unboxed because it feeds
   straight into the comparison), then a byte loop for the tail. *)
let rec zero_words data i stop =
  if i + 8 <= stop then buf_get64 data i = 0L && zero_words data (i + 8) stop
  else zero_bytes data i stop

and zero_bytes data i stop =
  i >= stop || (get data i = '\000' && zero_bytes data (i + 1) stop)

(* Reads only the part of [lo, stop) on marked pages: an unmarked page is
   zero.  [lo] is on page [p]. *)
let rec zero_pages t p lo stop =
  lo >= stop
  ||
  let next = (p + 1) lsl page_shift in
  let hi = if next < stop then next else stop in
  (Bytes.unsafe_get t.dirty p = '\000' || zero_words t.data lo hi)
  && zero_pages t (p + 1) hi stop

(* one bounds check for the whole window and no allocation, so scanning a
   whole RAM for resident pages creates no garbage *)
let is_zero t ~addr ~len =
  check t addr len;
  zero_pages t (addr lsr page_shift) addr (addr + len)

let clear t =
  for p = 0 to Bytes.length t.dirty - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      let addr = p lsl page_shift in
      let stop = addr + min page_size (t.size - addr) in
      let i = ref addr in
      while !i + 8 <= stop do
        buf_set64 t.data !i 0L;
        i := !i + 8
      done;
      for i = !i to stop - 1 do
        set t.data i '\000'
      done;
      Bytes.unsafe_set t.dirty p '\000'
    end
  done
