type counter =
  | Insns
  | Uops
  | Branch_direct
  | Branch_indirect
  | Branch_taken
  | Branch_cross_direct
  | Branch_cross_indirect
  | Loads
  | Stores
  | User_accesses
  | Data_abort
  | Prefetch_abort
  | Undef_insn
  | Svc_taken
  | Irq_taken
  | Io_reads
  | Io_writes
  | Cop_reads
  | Cop_writes
  | Tlb_hit
  | Tlb_miss
  | Tlb_inv_page_ops
  | Tlb_flush_ops
  | Mmu_walks
  | Walk_levels
  | Blocks_translated
  | Block_lookups
  | Chain_follows
  | Smc_invalidations
  | Decodes
  | Opt_passes_run
  | Vm_exits
  | Wfi_waits
  | Exceptions_total
  | Front_cache_hits
  | Traces_formed
  | Trace_dispatches
  | Trace_side_exits
  | Trace_invalidations
  | Tlb_fast_hits
  | Spills
  | Opstream_bytes
[@@deriving enum, show { with_path = false }]

let all =
  List.init (max_counter + 1) (fun i ->
      match counter_of_enum i with
      | Some c -> c
      | None -> assert false)

let to_string = show_counter

type t = int array

let size = max_counter + 1

let create () = Array.make size 0
let copy = Array.copy
let reset t = Array.fill t 0 size 0

(* A constant constructor is represented by its declaration index, which
   is the number [counter_to_enum] derives: counting by the constructor
   itself costs one load and one store, with no call.  Every [t] has
   [size] slots, so the index is always in bounds. *)
external index : counter -> int = "%identity"

let () = List.iter (fun c -> assert (index c = counter_to_enum c)) all

let[@inline] get t c = Array.unsafe_get t (index c)
let[@inline] incr t c = Array.unsafe_set t (index c) (Array.unsafe_get t (index c) + 1)
let[@inline] add t c n = Array.unsafe_set t (index c) (Array.unsafe_get t (index c) + n)

let diff ~after ~before = Array.init size (fun i -> after.(i) - before.(i))

let to_alist t =
  List.filter_map
    (fun c ->
      let v = get t c in
      if v = 0 then None else Some (c, v))
    all

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (c, v) -> Format.fprintf ppf "%s=%d" (to_string c) v)
    ppf (to_alist t)
