(** A fully linked executable image.

    The binary records, for every placed basic block, its final virtual
    address and size, the code it was compiled to, and what relaxation
    did to that code's branches; {!insts} reads a block's final
    instructions off them. The execution engine walks this image; the
    micro-architecture simulator consumes the resulting address
    stream. *)

type block_info = {
  func : string;
  block : int;  (** IR block id. *)
  addr : int;  (** Final virtual address. *)
  size : int;  (** Final encoded size. *)
  code : Isa.t list;
      (** The compiled code, before relaxation: the fragment piece's own
          list, shared with the object the block came from, never
          copied. Read the final instructions with {!insts}. *)
}

type placed = {
  name : string;
  kind : Objfile.Section.kind;
  addr : int;
  size : int;
  symbol : string option;
}

(** The address index of a linked image: the one structure every
    address-to-block lookup reads — {!find_block_by_addr}, {!funcs}
    and {!image_digest} here,
    [Inspect.Resolve], [Propeller.Dcfg.build_of_blocks] and the BOLT
    rewrite outside. It is built on first use, once per binary, and
    dies with it; only these readers pay for it. Read it; never mutate
    it. *)
type index = private {
  ordered : block_info array;
      (** Every placed block by address. Blocks that share an address
          (zero-size blocks that relaxation emptied) come in the order
          an unstable sort of a [(func, block)] hash table's sequence
          leaves them, so in hash-table order: building the index
          replays that table from [blocks], as the link used to fill
          it, to keep this order (the image-v1 digests). Breaking such
          ties by [(func, block)] is step A of ROADMAP item 1, which
          deletes the replay. *)
  order : int array;  (** [ordered.(i)]'s position in [blocks]. *)
  addrs : int array;  (** [ordered.(i).addr], for {!Support.Isearch}. *)
  sizes : int array;  (** [ordered.(i).size]. *)
  by_func : (string, int array) Hashtbl.t;
      (** Function -> the ascending indices of its blocks in [ordered]. *)
}

(** A text section whose object carried an address map: its symbol
    and its blocks, [blocks.(first)] to [blocks.(last - 1)]. This is
    all the retained [.llvm_bb_addr_map] holds: each entry's block id,
    its offset from the symbol's address and its size are read off the
    block itself. *)
type map_range = { symbol : string; first : int; last : int }

type t = {
  name : string;
  entry_symbol : string;
  sections : placed list;  (** In final layout order. *)
  symbols : (string, int) Hashtbl.t;  (** Global symbol -> address. *)
  blocks : block_info array;
      (** Every placed block in link order, which is address order:
          the order the link lays pieces out. *)
  first_branch : int array;
      (** Block [i]'s branches, the [Jcc]s and [Jmp]s of its [code] in
          order, are numbered [first_branch.(i)] to
          [first_branch.(i + 1) - 1]; one entry per block, plus one. *)
  branch_inst : Isa.t array;
      (** Per branch: its final instruction. Relaxation may have shrunk
          it, grown it back or reversed it; a branch it left alone is
          the very value in [code]. *)
  branch_dead : Bytes.t;
      (** Per branch: ['\001'] when relaxation deleted it, else
          ['\000']. *)
  func_ids : (string, int) Hashtbl.t;
      (** Function -> its number in this binary: the link numbers each
          function once, the first time it meets one of its sections. *)
  positions : int array array;
      (** Per function number: its blocks' positions in [blocks],
          indexed by block id and as long as its largest id plus one;
          [-1] marks an id with no placed block. Read it through
          {!block_positions}. *)
  text_start : int;
  text_end : int;
  bb_addr_map : map_range array;
      (** The retained [.llvm_bb_addr_map], one range per mapped
          section in link order; empty when the link dropped it. *)
  by_addr : cell;  (** The {!index}, built on first use. *)
}

(** Where {!index} keeps the index it built. *)
and cell

(** [make ...] assembles a binary. *)
val make :
  name:string ->
  entry_symbol:string ->
  sections:placed list ->
  symbols:(string, int) Hashtbl.t ->
  blocks:block_info array ->
  first_branch:int array ->
  branch_inst:Isa.t array ->
  branch_dead:Bytes.t ->
  func_ids:(string, int) Hashtbl.t ->
  positions:int array array ->
  text_start:int ->
  text_end:int ->
  bb_addr_map:map_range array ->
  t

(** [block_positions t f] is [f]'s entry in [t.positions]: block id ->
    position in [t.blocks], or [-1]; an id past its end has no placed
    block either, and it is empty when [f] has none. Read it once to
    look up many blocks of one function. *)
val block_positions : t -> string -> int array

(** [block_info t ~func ~block] looks a placed block up through
    {!block_positions}: one hash of [func], no table of blocks. *)
val block_info : t -> func:string -> block:int -> block_info option

(** [insts t pos] is the final instruction list of [t.blocks.(pos)]:
    its [code] with the deleted branches left out and the others in
    their final form. It is built on each call, sharing the longest
    tail of [code] that relaxation left alone, so a block none of
    whose branches changed returns [code] itself. *)
val insts : t -> int -> Isa.t list

(** [size_of_kind t kind] sums placed section sizes of [kind]. *)
val size_of_kind : t -> Objfile.Section.kind -> int

(** [total_size t] is the file-size model: the sum of all sections. *)
val total_size : t -> int

(** [text_bytes t] is the size of executable code. *)
val text_bytes : t -> int

(** [index t] is [t]'s address index, built on the first call. *)
val index : t -> index

(** [func_blocks idx f] is [idx.by_func]'s entry for [f]: the indices
    of [f]'s blocks in [idx.ordered], ascending; empty when [f] has no
    placed block. *)
val func_blocks : index -> string -> int array

(** [find_block_by_addr t addr] is a placed block covering the virtual
    address [addr]: {!Support.Isearch.covering} over the {!index}, so
    O(log n), and with its known miss next to zero-size blocks. *)
val find_block_by_addr : t -> int -> block_info option

(** [funcs t] lists function names with placed blocks, sorted. *)
val funcs : t -> string list

(** [image_digest t] is a content digest of the observable image: the
    placed section list, every block's final address/size/instructions
    (in address order), and the sorted symbol table — the byte-identity
    oracle behind the [--jobs] determinism tests. It does not yet
    depend on the image alone: blocks that share an address (zero-size
    blocks that relaxation emptied) are serialized in the hash-table
    order the {!index} replays, so two binaries with the same image can
    digest differently, for example under randomized [Hashtbl] seeds.
    Ordering such ties by [(func, block)] is step A of ROADMAP item 1.
    The first call builds the {!index}. *)
val image_digest : t -> Support.Digesting.t
