(** Host-side micro-TLB: a direct-mapped (virtual page -> host byte offset)
    cache used by the DBT's flat-memory fast path.

    Unlike {!Page_cache} (the software TLB whose hits and misses engines
    count), this structure is a host optimization: a hit is a proof that at
    fill time the translation was walked, permitted, and resolved to a page
    wholly resident in flat RAM, so the caller may access {!Sb_mem.Phys_mem}
    via its unchecked accessors.  Entries are tagged with (vpn, asid,
    privilege) and a generation number; [flush] is O(1) — it bumps the
    generation, invalidating every entry lazily.

    The access kind (read / write / execute) is deliberately not part of
    the key: engines keep one instance per kind so that a probe is a single
    index plus two compares. *)

type t

val create : entries:int -> t
(** [entries] must be a positive power of two. *)

val probe : t -> vpn:int -> asid:int -> priv:int -> int
(** Host byte offset of the page base in flat RAM, or [-1] on miss. *)

val fill : t -> vpn:int -> asid:int -> priv:int -> base:int -> unit

val invalidate_page : t -> vpn:int -> unit
(** Drop any entry for [vpn], regardless of ASID or privilege
    (conservative over-invalidation is always safe). *)

val flush : t -> unit
(** Invalidate every entry in O(1) by bumping the generation. *)
