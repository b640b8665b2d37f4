(** Guest physical memory: a flat little-endian byte array.

    All addresses are physical byte addresses starting at 0.  Accesses out of
    range raise [Out_of_range]; the bus maps only valid RAM addresses here,
    so in a correctly configured machine this exception indicates a simulator
    bug rather than a guest fault.

    Power-of-two sizes get a single-compare bounds test (one [land] against
    the high-bit mask covers negative addresses and overruns at once); other
    sizes fall back to the two-compare form. *)

type t

exception Out_of_range of int

val create : size:int -> t
(** Fresh zero-filled memory of [size] bytes. *)

val size : t -> int

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int

val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

(** Unchecked accessors: no bounds test at all.  The caller must have
    proved the whole window [addr, addr + width) resident — the DBT's
    micro-TLB fast path does this once per page fill (see
    {!Sb_mmu.Mtlb}) and then reads/writes flat memory per access. *)

val unsafe_read8 : t -> int -> int
val unsafe_read16 : t -> int -> int
val unsafe_read32 : t -> int -> int

val unsafe_write8 : t -> int -> int -> unit
val unsafe_write16 : t -> int -> int -> unit
val unsafe_write32 : t -> int -> int -> unit

val load : t -> addr:int -> Bytes.t -> unit
(** Copy an image into memory at [addr]. *)

val blit_out : t -> addr:int -> len:int -> Bytes.t
(** Copy [len] bytes starting at [addr] out of memory. *)

val is_zero : t -> addr:int -> len:int -> bool
(** True when all [len] bytes starting at [addr] are zero (vacuously for
    [len = 0]).  Bounds-checked once for the whole window, like
    {!blit_out}; raises [Out_of_range] when it is not resident.  Scans 8
    bytes at a time without allocating. *)

val clear : t -> unit
(** Zero every byte, leaving the memory as {!create} made it. *)
