(* [dirty] holds one byte per page: non-zero once any write function has
   stored into the page since the last [clear].  Every store goes through
   this module ([t] is abstract), so an unmarked page is all zero; [clear]
   and [is_zero] rely on that and touch only marked pages. *)
type t = { data : Bytes.t; dirty : Bytes.t; size : int; hi_mask : int }

exception Out_of_range of int

let page_shift = 12
let page_size = 1 lsl page_shift

let create ~size =
  (* power-of-two sizes (every shipped machine) get a single-compare bounds
     test: any address bit at or above the size bit — including the sign
     bit of a negative address — lands in [hi_mask] *)
  let hi_mask =
    if size > 0 && size land (size - 1) = 0 then lnot (size - 1) else 0
  in
  {
    data = Bytes.make size '\000';
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

(* Unchecked accessors for callers that have already validated the window
   [addr, addr + width) — the DBT's micro-TLB fast path proves a whole page
   resident at fill time and then skips [check] per access. *)

let unsafe_read8 t addr = Char.code (Bytes.unsafe_get t.data addr)

let unsafe_read16 t addr =
  let b = t.data in
  Char.code (Bytes.unsafe_get b addr)
  lor (Char.code (Bytes.unsafe_get b (addr + 1)) lsl 8)

let unsafe_read32 t addr =
  let b = t.data in
  Char.code (Bytes.unsafe_get b addr)
  lor (Char.code (Bytes.unsafe_get b (addr + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (addr + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (addr + 3)) lsl 24)

let unsafe_write8 t addr v =
  mark t addr;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

(* a wide write may straddle two pages: marking its first and last byte's
   pages costs one store more than a boundary test would, and no branch *)
let unsafe_write16 t addr v =
  mark t addr;
  mark t (addr + 1);
  let b = t.data in
  Bytes.unsafe_set b addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))

let unsafe_write32 t addr v =
  mark t addr;
  mark t (addr + 3);
  let b = t.data in
  Bytes.unsafe_set b addr (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

let read8 t addr =
  check t addr 1;
  unsafe_read8 t addr

(* recompose from unchecked byte reads, like [read32]: [Bytes.get_uint16_le]
   goes through the generic safe accessor and its bounds re-check *)
let read16 t addr =
  check t addr 2;
  unsafe_read16 t addr

(* recompose from unchecked byte reads: [Bytes.get_int32_le] allocates a
   boxed [Int32] on every call, and this is the hottest path in the whole
   simulator (every guest load/store and every code fetch lands here) *)
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

let load t ~addr image =
  let len = Bytes.length image in
  check t addr len;
  if len > 0 then
    Bytes.fill t.dirty (addr lsr page_shift)
      (((addr + len - 1) lsr page_shift) - (addr lsr page_shift) + 1)
      '\001';
  Bytes.blit image 0 t.data addr len

let blit_out t ~addr ~len =
  check t addr len;
  Bytes.sub t.data addr len

external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Unchecked 8-byte loads (the [int64] stays unboxed because it feeds
   straight into the comparison), then a byte loop for the tail. *)
let rec zero_words data i stop =
  if i + 8 <= stop then unsafe_get64 data i = 0L && zero_words data (i + 8) stop
  else zero_bytes data i stop

and zero_bytes data i stop =
  i >= stop || (Bytes.unsafe_get data i = '\000' && zero_bytes data (i + 1) stop)

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
      Bytes.fill t.data addr (min page_size (t.size - addr)) '\000';
      Bytes.unsafe_set t.dirty p '\000'
    end
  done
