(** The software TLB: a direct-mapped cache of 4 KiB translations, with an
    optional victim level and a choice of flush.

    Every engine that models a TLB keeps one or more of these and counts
    hits and misses in its own performance counters: the DBT's page cache
    (QEMU's softmmu TLB), interp's unified TLB and the detailed model's
    split I- and D-TLBs.  Level 1 is probed inline on every translation;
    level 2, when [l2_entries] is not 0, is a larger victim cache that
    takes the entries level 1 displaces and is probed before a table walk.
    A flush is eager (clear the arrays) or lazy (bump a generation tag).
    interp and detailed use level 1 alone, flushed eagerly.

    Entries carry the walk attributes; the caller checks permissions on
    every lookup, so one entry serves both privilege levels.  Entries are
    tagged with the address-space identifier current when they were filled
    (see {!Sb_isa.Cregs.asid}): lookups only hit entries of the given
    ASID, and the slot index mixes the ASID so two address spaces do not
    thrash one slot.  Callers that do not use ASIDs pass 0 throughout. *)

type entry = {
  vpn : int;  (** va lsr 12 *)
  ppn : int;  (** pa lsr 12 *)
  ap : int;
  xn : bool;
  asid : int;
}

type t

val create : l1_entries:int -> l2_entries:int -> lazy_flush:bool -> t
(** [l1_entries], and [l2_entries] unless it is 0, must be powers of two. *)

val lookup_l1 : t -> vpn:int -> asid:int -> entry option
(** The inline fast path. *)

val lookup_l2 : t -> vpn:int -> asid:int -> entry option
(** Slow-path probe of the victim level; on a hit the entry is promoted to
    level 1. *)

val insert : t -> entry -> unit
(** Fill level 1; the entry it displaces moves to level 2. *)

val fill : t -> vpn:int -> asid:int -> Walker.mapping -> entry
(** [insert] the entry of a walked mapping, and return it. *)

val invalidate_page : t -> vpn:int -> asid:int -> unit
(** ASID-qualified invalidate-by-VA (ARM's TLBIMVA) on both levels: O(1).
    Guests changing mappings shared across address spaces must use a full
    flush. *)

val flush : t -> unit
