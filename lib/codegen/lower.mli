(** Lowering of IR functions to machine code sections.

    All branches are emitted in their long form with explicit
    fall-through jumps (paper §4.2): with basic block sections the final
    distance between blocks is unknown until link time, so branch
    resolution and shrinking are deferred to the linker's relaxation
    pass. *)

(** [block_code_bytes b] is the lowered size of [b] including its
    terminator in worst-case (long) encoding — the size layout
    algorithms should assume. *)
val block_code_bytes : Ir.Block.t -> int

(** [lower_func ~emit_bb_addr_map ~plan ~default_order ?prefetch_blocks f]
    produces the text sections of [f] — one per cluster when [plan] is
    given ([Error]s from {!Directive.validate} are raised as
    [Invalid_argument]), otherwise a single section laying blocks out in
    [default_order] (ignored when [plan] is given). When [plan] leaves
    blocks unlisted they form the trailing cold cluster. When
    [emit_bb_addr_map] is set, a
    [.llvm_bb_addr_map.<func>] section is appended; its entries take
    each block's size and offset from the fragment index
    ({!Objfile.Fragment.index}). Blocks listed in [prefetch_blocks] get
    a software prefetch inserted ahead of each delinquent load (paper
    §3.5). A section that begins with a landing pad begins with a
    one-byte nop, part of that block's code (paper §4.5). Each block's
    code is built in one pass, body then terminator, as the list the
    fragment keeps, without recursion deeper than a constant, so no
    body is too long to lower. *)
val lower_func :
  emit_bb_addr_map:bool ->
  plan:Directive.func_plan option ->
  default_order:int list ->
  ?prefetch_blocks:int list ->
  Ir.Func.t ->
  Objfile.Section.t list
