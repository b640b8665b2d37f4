open Sb_util

let eval op a b =
  match op with
  | Sb_isa.Uop.Add -> U32.add a b
  | Sub -> U32.sub a b
  | And_ -> U32.logand a b
  | Orr -> U32.logor a b
  | Xor -> U32.logxor a b
  | Lsl -> U32.shift_left a (b land 0xFF)
  | Lsr -> U32.shift_right_logical a (b land 0xFF)
  | Asr -> U32.shift_right_arith a (b land 0xFF)
  | Mul -> U32.mul a b

(* Stores straight into the CPU, so a flag-setting op (every benchmark's
   loop counter) builds no tuple. *)
let eval_set_flags cpu op a b =
  let result =
    match op with
    | Sb_isa.Uop.Add ->
      let result = U32.add a b in
      cpu.Cpu.flag_c <- U32.of_int a + U32.of_int b > U32.mask;
      cpu.Cpu.flag_v <- U32.to_signed a + U32.to_signed b <> U32.to_signed result;
      result
    | Sub ->
      let result = U32.sub a b in
      (* ARM convention: C is the inverted borrow *)
      cpu.Cpu.flag_c <- U32.of_int a >= U32.of_int b;
      cpu.Cpu.flag_v <- U32.to_signed a - U32.to_signed b <> U32.to_signed result;
      result
    | And_ | Orr | Xor | Lsl | Lsr | Asr | Mul ->
      cpu.Cpu.flag_c <- false;
      cpu.Cpu.flag_v <- false;
      eval op a b
  in
  cpu.Cpu.flag_n <- result land 0x8000_0000 <> 0;
  cpu.Cpu.flag_z <- result = 0;
  result
