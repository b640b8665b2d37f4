(** ALU semantics shared by every engine: one evaluator, one flag rule. *)

val eval : Sb_isa.Uop.alu_op -> int -> int -> int
(** [eval op a b] over u32 operands. *)

val eval_set_flags : Cpu.t -> Sb_isa.Uop.alu_op -> int -> int -> int
(** [eval_set_flags cpu op a b] is [eval op a b], and sets [cpu]'s N, Z, C
    and V from it.  For Add, C is the unsigned carry out; for Sub, the
    inverted borrow (ARM convention); V is signed overflow.  For logical
    and shift operations C and V are cleared (the simplified SBA flag
    rule).  Allocates nothing. *)
