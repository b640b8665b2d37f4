(** Unsigned 32-bit arithmetic carried on native [int]s.

    All guest-visible 32-bit values in the simulator are represented as OCaml
    [int]s in the range [0, 0xFFFF_FFFF].  Every operation here re-normalises
    its result into that range, so values produced by this module can be mixed
    freely with array indexing and hashing. *)

val mask : int
(** [0xFFFF_FFFF]. *)

val of_int : int -> int
(** Truncate a native int to its low 32 bits. *)

val to_signed : int -> int
(** Reinterpret a u32 as a signed 32-bit quantity (two's complement). *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val logand : int -> int -> int
val logor : int -> int -> int
val logxor : int -> int -> int
val lognot : int -> int

val shift_left : int -> int -> int
(** [shift_left x n] for [n >= 32] is [0]. *)

val shift_right_logical : int -> int -> int
val shift_right_arith : int -> int -> int

val lt_signed : int -> int -> bool
val lt_unsigned : int -> int -> bool

val sign_extend : bits:int -> int -> int
(** [sign_extend ~bits v] sign-extends the low [bits] bits of [v] into a u32. *)

val pp : Format.formatter -> int -> unit
(** Print as [0x%08x]. *)

val to_hex : int -> string
