open Simbench.Pasm

type t = {
  name : string;
  spec_name : string;
  weight : float;
  bench : Simbench.Bench.t;
}

let add r a b = Alu (Sb_isa.Uop.Add, r, a, b)
let sub r a b = Alu (Sb_isa.Uop.Sub, r, a, b)
let xor r a b = Alu (Sb_isa.Uop.Xor, r, a, b)
let and_ r a b = Alu (Sb_isa.Uop.And_, r, a, b)
let mul r a b = Alu (Sb_isa.Uop.Mul, r, a, b)
let lsl_ r a b = Alu (Sb_isa.Uop.Lsl, r, a, b)
let lsr_ r a b = Alu (Sb_isa.Uop.Lsr, r, a, b)

(* r := r * 1103515245 + 12345 (the classic LCG step) *)
let lcg r = [ mul r r (I 1103515245); add r r (I 12345) ]

(* [counted_loop ~label ~counter n body]: body must preserve [counter]. *)
let counted_loop ~label ~counter n body =
  [ Li (counter, n); L label ]
  @ body
  @ [ sub counter counter (I 1); Cmp (counter, I 0); Br (Sb_isa.Uop.Ne, label) ]

let workload ~name ~spec_name ?(weight = 1.0) ~description body =
  {
    name;
    spec_name;
    weight;
    bench =
      {
        Simbench.Bench.name;
        category = Simbench.Category.Application;
        description;
        default_iters = 40;
        ops_per_iter = 0;
        platform_specific = false;
        body;
      };
  }

(* ------------------------------------------------------------------ *)

let sjeng =
  let body ~support:_ ~platform:_ =
    let skip n = Printf.sprintf "sj_s%d" n in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0x2B5E); Li (v2, 0) ];
      kernel =
        counted_loop ~label:"sj_inner" ~counter:v0 512
          (lcg v1
          @ [
              and_ v3 v1 (I 1);
              Cmp (v3, I 0);
              Br (Sb_isa.Uop.Eq, skip 1);
              add v2 v2 (I 13);
              L (skip 1);
              and_ v3 v1 (I 6);
              Cmp (v3, I 0);
              Br (Sb_isa.Uop.Eq, skip 2);
              xor v2 v2 (R v1);
              L (skip 2);
              and_ v3 v1 (I 24);
              Cmp (v3, I 24);
              Br (Sb_isa.Uop.Ne, skip 3);
              add v2 v2 (R v1);
              L (skip 3);
              and_ v3 v1 (I 256);
              Cmp (v3, I 0);
              Br (Sb_isa.Uop.Eq, skip 4);
              sub v2 v2 (I 7);
              L (skip 4);
            ]);
    }
  in
  workload ~name:"sjeng" ~spec_name:"458.sjeng"
    ~description:"branchy game-tree search: dense unpredictable intra-page branches"
    body

let mcf =
  let body ~support ~platform:(p : Simbench.Platform.t) =
    let (module S : Simbench.Support.SUPPORT) = support in
    let heap = p.Simbench.Platform.heap_base in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup =
        (* node(i) at heap + ((i*577) mod 2048) pages; each holds a pointer
           to node(i+1): a page-stride linked list that overflows both levels
           of any simulator page cache *)
        [ Li (v0, 0); L "mcf_build" ]
        @ [
            mul v2 v0 (I 577);
            and_ v2 v2 (I 2047);
            lsl_ v2 v2 (I 12);
            add v2 v2 (I heap);
            add v3 v0 (I 1);
            mul v3 v3 (I 577);
            and_ v3 v3 (I 2047);
            lsl_ v3 v3 (I 12);
            add v3 v3 (I heap);
            Store (W32, v3, v2, 0);
            add v0 v0 (I 1);
            Cmp (v0, I 2048);
            Br (Sb_isa.Uop.Ne, "mcf_build");
            Li (v1, 0);
          ];
      kernel =
        [ Li (v0, heap) ]
        @ counted_loop ~label:"mcf_chase" ~counter:v2 2048 [ Load (W32, v0, v0, 0) ]
        @ [ xor v1 v1 (R v0) ]
        (* a demand-paging event per pass: one recoverable data fault *)
        @ [ Li (v3, p.Simbench.Platform.fault_va); Load (W32, v3, v3, 0) ];
      handlers =
        [
          ( Sb_sim.Exn.Data_abort,
            [
              Cop_read (v3, Sb_isa.Cregs.elr);
              add v3 v3 (I S.load_skip_bytes);
              Cop_write (Sb_isa.Cregs.elr, v3);
              Eret;
            ] );
        ];
    }
  in
  workload ~name:"mcf" ~spec_name:"429.mcf"
    ~description:"page-stride pointer chasing with paging events: TLB-hostile"
    body

let libquantum =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0) ];
      kernel =
        [ Li (v2, heap) ]
        @ counted_loop ~label:"lq_sweep" ~counter:v3 4096
            [
              Load (W32, v0, v2, 0);
              xor v0 v0 (I 0x5A5A);
              Store (W32, v0, v2, 0);
              add v2 v2 (I 4);
            ]
        @ [ xor v1 v1 (R v0) ];
    }
  in
  workload ~name:"libquantum" ~spec_name:"462.libquantum"
    ~description:"streaming gate application over a large register vector" body

let h264ref =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.kernel =
        [ Li (v2, heap); Li (v3, heap + 0x10000) ]
        @ counted_loop ~label:"h264_copy" ~counter:v0 2048
            [
              Load (W32, v1, v2, 0);
              Store (W32, v1, v3, 0);
              add v2 v2 (I 4);
              add v3 v3 (I 4);
            ];
    }
  in
  workload ~name:"h264ref" ~spec_name:"464.h264ref"
    ~description:"reference-frame block copies: hot load/store pairs" body

let bzip2 =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let scratch = p.Simbench.Platform.scratch_base in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0xB21F); Li (v2, 0) ];
      kernel =
        counted_loop ~label:"bz_inner" ~counter:v0 1024
          (lcg v1
          @ [
              and_ v3 v1 (I 0xFF);
              add v3 v3 (I scratch);
              Load (W8, v3, v3, 0);
              xor v2 v2 (R v3);
              lsl_ v2 v2 (I 1);
              lsr_ v3 v1 (I 8);
              and_ v3 v3 (I 0xFF);
              add v3 v3 (I scratch);
              Store (W8, v2, v3, 0);
            ]);
    }
  in
  workload ~name:"bzip2" ~spec_name:"401.bzip2"
    ~description:"byte-granular bit twiddling over a block-sorting buffer" body

(* A small family of leaf functions with different ALU mixes, called through
   a function-pointer table — the classic compiler/interpreter shape. *)
let dispatch_functions ~prefix =
  let fn i = Printf.sprintf "%s_f%d" prefix i in
  let table = prefix ^ "_table" in
  let bodies =
    [
      [ add v2 v2 (I 3) ];
      [ xor v2 v2 (I 0x55) ];
      [ lsl_ v2 v2 (I 1); add v2 v2 (I 1) ];
      [ sub v2 v2 (I 5) ];
      [ mul v2 v2 (I 3) ];
      [ lsr_ v2 v2 (I 2); xor v2 v2 (I 9) ];
      [ add v2 v2 (R v1) ];
      [ xor v2 v2 (R v1); add v2 v2 (I 1) ];
    ]
  in
  let functions =
    (* a fresh page: calls into the dispatch targets cross a page boundary,
       as they do in real call-heavy applications *)
    [ Align 4096 ]
    @ List.concat (List.mapi (fun i body -> [ L (fn i) ] @ body @ [ Ret ]) bodies)
    @ [ Align 4; L table ]
    @ List.init 8 (fun i -> Word_sym (fn i))
  in
  (functions, table)

let gcc =
  (* dispatch: v0 is the loop counter, v1 the rng, v2 the value being
     transformed, v3 the computed function pointer; lr doubles as the table
     base because the call is about to clobber it anyway *)
  let body ~support:_ ~platform:_ =
    let functions, table = dispatch_functions ~prefix:"gcc" in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0x6CC1); Li (v2, 0) ];
      kernel =
        counted_loop ~label:"gcc_inner" ~counter:v0 256
          (lcg v1
          @ [
              and_ v3 v1 (I 7);
              lsl_ v3 v3 (I 2);
              La (lr, table);
              add v3 v3 (R lr);
              Load (W32, v3, v3, 0);
              Call_reg v3;
            ])
        @ [ Cop_safe_read v3 ];
      functions;
    }
  in
  workload ~name:"gcc" ~spec_name:"403.gcc"
    ~description:"pass dispatch through function-pointer tables" body

let perlbench =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let functions, table = dispatch_functions ~prefix:"pl" in
    let scratch = p.Simbench.Platform.scratch_base + 0x1000 in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup =
        (* pre-compile a little "bytecode" program: opcode(i) = (i*31) & 7 *)
        [ Li (v0, 0); Li (v2, scratch); L "pl_compile" ]
        @ [
            mul v3 v0 (I 31);
            and_ v3 v3 (I 7);
            Store (W8, v3, v2, 0);
            add v2 v2 (I 1);
            add v0 v0 (I 1);
            Cmp (v0, I 512);
            Br (Sb_isa.Uop.Ne, "pl_compile");
            Li (v1, 0);
            Li (v2, 0);
          ];
      kernel =
        [ Li (v1, scratch) ]
        @ counted_loop ~label:"pl_exec" ~counter:v0 512
            ([
               Load (W8, v3, v1, 0);
               lsl_ v3 v3 (I 2);
               add v1 v1 (I 1);
             ]
            @ [ La (lr, table); add v3 v3 (R lr); Load (W32, v3, v3, 0); Call_reg v3 ])
        @ [ Syscall ]
        @ [
            (* progress output on the console *)
            Li (v3, p.Simbench.Platform.uart_base);
            Li (v1, Char.code '.');
            Store (W32, v1, v3, 0);
          ];
      handlers = [ (Sb_sim.Exn.Syscall, [ Eret ]) ];
      functions;
    }
  in
  workload ~name:"perlbench" ~spec_name:"400.perlbench"
    ~description:
      "opcode-dispatch interpreter loop with system calls and console output"
    body

let gobmk =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base + 0x40000 in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0x60B3); Li (v2, 0) ];
      kernel =
        counted_loop ~label:"gb_inner" ~counter:v0 512
          (lcg v1
          @ [
              and_ v3 v1 (I 0x3FFC);
              add v3 v3 (I heap);
              Load (W32, v2, v3, 0);
              add v2 v2 (I 1);
              Store (W32, v2, v3, 0);
              and_ v3 v1 (I 16);
              Cmp (v3, I 0);
              Br (Sb_isa.Uop.Eq, "gb_skip");
              xor v2 v2 (R v1);
              L "gb_skip";
            ]);
    }
  in
  workload ~name:"gobmk" ~spec_name:"445.gobmk"
    ~description:"board-state reads/updates mixed with unpredictable branches" body

let hmmer =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base + 0x80000 in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0) ];
      kernel =
        [ Li (v0, heap) ]
        @ counted_loop ~label:"hm_inner" ~counter:v3 1024
            [
              Load (W32, v2, v0, 0);
              Load (W32, v1, v0, 2048) (* second row of the score matrix *);
              mul v2 v2 (R v1);
              add v1 v1 (R v2);
              Store (W32, v1, v0, 4096);
              add v0 v0 (I 4);
            ];
    }
  in
  workload ~name:"hmmer" ~spec_name:"456.hmmer"
    ~description:"profile-HMM inner loop: load/load/multiply/accumulate/store" body

let omnetpp =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base + 0xC0000 in
    let intc = p.Simbench.Platform.intc_base in
    let timer = p.Simbench.Platform.timer_base in
    let timer_mask = 1 lsl Sb_mem.Intc.timer_line in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup =
        [
          (* periodic simulation-clock interrupts via the platform timer *)
          Li (v1, intc);
          Li (v0, timer_mask);
          Store (W32, v0, v1, 0x4);
          Li (v1, timer);
          Li (v0, 1);
          Store (W32, v0, v1, 0x8);
          Load (W32, v0, v1, 0x0);
          add v0 v0 (I 20_000);
          Store (W32, v0, v1, 0x4);
          Li (v1, 0x03E7);
          Li (v2, 0);
        ];
      kernel =
        counted_loop ~label:"om_inner" ~counter:v0 512
          (lcg v1
          @ [
              and_ v3 v1 (I 0xFFC);
              add v3 v3 (I heap);
              Load (W32, v2, v3, 0);
              Cmp (v2, R v1);
              Br (Sb_isa.Uop.Ltu, "om_keep");
              Store (W32, v1, v3, 0);
              L "om_keep";
            ]);
      handlers =
        [
          ( Sb_sim.Exn.Irq,
            Simbench.Rt.wrap_irq_handler
              [
                Li (v3, intc);
                Li (v0, timer_mask);
                Store (W32, v0, v3, 0xC);
                Li (v3, timer);
                Load (W32, v0, v3, 0x0);
                add v0 v0 (I 20_000);
                Store (W32, v0, v3, 0x4);
              ] );
        ];
      needs_irqs = true;
    }
  in
  workload ~name:"omnetpp" ~spec_name:"471.omnetpp"
    ~description:"event-queue updates driven by periodic timer interrupts" body

let astar =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base + 0x100000 in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0); Li (v2, 0xA57A) ];
      kernel =
        counted_loop ~label:"as_inner" ~counter:v0 512
          (lcg v2
          @ [
              and_ v3 v2 (I 12);
              add v1 v1 (R v3);
              and_ v1 v1 (I 0xFFFC);
              add v3 v1 (I heap);
              Load (W32, v3, v3, 0);
              Cmp (v3, I 0);
              Br (Sb_isa.Uop.Eq, "as_open");
              add v1 v1 (I 4);
              and_ v1 v1 (I 0xFFFC);
              L "as_open";
            ]);
    }
  in
  workload ~name:"astar" ~spec_name:"473.astar"
    ~description:"grid path exploration: data-dependent position updates" body

let xalancbmk =
  let body ~support:_ ~platform:(p : Simbench.Platform.t) =
    let heap = p.Simbench.Platform.heap_base + 0x140000 in
    {
      Simbench.Bench.empty_body with
      Simbench.Bench.setup = [ Li (v1, 0x3A1A); Li (v2, 0) ];
      kernel =
        counted_loop ~label:"xa_walk" ~counter:v0 128
          ((* walk a binary tree of 1024 implicit nodes, 10 levels deep,
              guided by the rng bits *)
           [ Li (v3, 0) (* node index *) ]
          @ lcg v1
          @ List.concat
              (List.init 10 (fun level ->
                   [
                     lsl_ v3 v3 (I 1);
                     add v3 v3 (I 1);
                     lsr_ v2 v1 (I level);
                     and_ v2 v2 (I 1);
                     add v3 v3 (R v2);
                     and_ v3 v3 (I 1023);
                   ]))
          @ [
              lsl_ v3 v3 (I 4);
              add v3 v3 (I heap);
              Load (W32, v2, v3, 0);
              add v2 v2 (I 1);
              Store (W32, v2, v3, 0);
            ]);
    }
  in
  workload ~name:"xalancbmk" ~spec_name:"483.xalancbmk"
    ~description:"tree traversal with data-dependent descent" body

let all =
  [
    perlbench;
    bzip2;
    gcc;
    mcf;
    gobmk;
    hmmer;
    sjeng;
    libquantum;
    h264ref;
    omnetpp;
    astar;
    xalancbmk;
  ]

let run ?platform ?iters ?switch_at ?setup_engine ?checkpoints ~support ~engine
    w =
  Simbench.Harness.run ?platform ?iters ?switch_at ?setup_engine ?checkpoints
    ~support ~engine w.bench
