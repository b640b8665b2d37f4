(** Guest physical memory: a flat little-endian byte array.

    All addresses are physical byte addresses starting at 0.  Accesses out of
    range raise [Out_of_range]; the bus maps only valid RAM addresses here,
    so in a correctly configured machine this exception indicates a simulator
    bug rather than a guest fault.

    The bytes live outside the OCaml heap, in a private mapping of
    [/dev/zero], as full-system simulators back guest RAM with an
    anonymous host mapping: a page costs host memory only once a write
    touches it, and the GC neither scans the RAM nor paces its cycles
    against it.  Where [/dev/zero] cannot be opened or mapped, {!create}
    falls back to an ordinary zero-filled bigarray, which behaves the
    same but is resident from the start.

    Power-of-two sizes get a single-compare bounds test (one [land] against
    the high-bit mask covers negative addresses and overruns at once); other
    sizes fall back to the two-compare form.

    The memory keeps a dirty map, one byte per 4 KiB page.  Every write
    function below marks each page it stores into, and only {!clear}
    unmarks one, so a page that is not marked is all zero.  {!clear} and
    {!is_zero} rely on this rule and cost time in proportion to the marked
    pages, not to the size.  Since [t] is abstract, no store can bypass
    the marks. *)

type t

exception Out_of_range of int

val zero_buf :
  ('a, 'b) Bigarray.kind -> 'a -> int -> ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t
(** [zero_buf kind zero n] is a vector of [n] elements of [kind], all
    [zero], which must be the element whose bytes are all zero.  It is a
    private mapping of [/dev/zero], the backing of guest RAM here and of
    the direct-execution engines' host TLBs: no element is stored when it
    is made, a host page becomes resident only once an element on it is
    written, and the OCaml heap grows by the bigarray's header alone.
    Where [/dev/zero] cannot be opened or mapped, it is an ordinary
    bigarray filled with [zero], with the same contents but resident
    from the start. *)

val create : size:int -> t
(** Fresh zero-filled memory of [size] bytes from {!zero_buf}, with no
    page marked.  The OCaml heap grows by the dirty map only (one byte
    per page). *)

val size : t -> int

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int

(** Checked writes.  Each marks the page of its first and of its last
    byte, which covers a 16- or 32-bit write that crosses a page
    boundary. *)

val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

(** Unchecked accessors: no bounds test at all.  The caller must have
    proved the whole window [addr, addr + width) resident — the DBT's
    micro-TLB fast path does this once per page fill (see
    {!Sb_mmu.Mtlb}) and then reads/writes flat memory per access.  The
    writes mark the dirty map exactly like the checked ones. *)

val unsafe_read8 : t -> int -> int
val unsafe_read16 : t -> int -> int
val unsafe_read32 : t -> int -> int

val unsafe_write8 : t -> int -> int -> unit
val unsafe_write16 : t -> int -> int -> unit
val unsafe_write32 : t -> int -> int -> unit

val load : t -> addr:int -> Bytes.t -> unit
(** Copy an image into memory at [addr], marking every page it covers.
    Only reads [image]. *)

val blit_out : t -> addr:int -> len:int -> Bytes.t
(** Copy [len] bytes starting at [addr] out of memory. *)

val is_zero : t -> addr:int -> len:int -> bool
(** True when all [len] bytes starting at [addr] are zero (vacuously for
    [len = 0]).  Bounds-checked once for the whole window, like
    {!blit_out}; raises [Out_of_range] when it is not resident.  Reads only
    the part of the window on marked pages, so a window with no marked page
    is [true] without touching memory.  Scans 8 bytes at a time without
    allocating. *)

val clear : t -> unit
(** Zero every marked page and unmark it, leaving the memory as {!create}
    made it.  Costs time in proportion to the pages written since the last
    clear, plus one scan of the map. *)
