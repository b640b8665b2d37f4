(** Fast interpreter engine (the SimIt-ARM analog), an instantiation of
    {!Core}.

    Implementation techniques, mirroring the paper's Figure 4 row:
    - execution model: pre-decoded interpretation (a per-physical-page
      decode cache avoids re-decoding hot code, and a direct-mapped fetch
      front cache from virtual page to predecoded page skips the TLB probe
      for fetches that stay on a recently fetched page);
    - memory access: single-level page cache (one unified software TLB);
    - no code generation;
    - control flow: interpreted (every branch re-enters the dispatch loop);
    - interrupts checked at instruction boundaries;
    - synchronous exceptions interpreted directly.

    Self-modifying code is handled with a per-page code bitmap: a store to a
    page holding pre-decoded instructions clears that page's decode cache. *)

module Make (A : Sb_isa.Arch_sig.ARCH) : Sb_sim.Engine.ENGINE

module Config : sig
  type t = { predecode : bool  (** false degrades to decode-every-time *) }

  val default : t
end

module Make_configured (A : Sb_isa.Arch_sig.ARCH) (C : sig
  val config : Config.t
end) : Sb_sim.Engine.ENGINE
(** Ablation entry point: the pre-decode sweep builds an engine that
    decodes on every fetch. *)
