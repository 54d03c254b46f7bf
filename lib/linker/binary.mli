(** A fully linked executable image.

    The binary records, for every placed basic block, its final virtual
    address, size, and instruction sequence (post-relaxation). The
    execution engine walks this image; the micro-architecture simulator
    consumes the resulting address stream. *)

type block_info = {
  func : string;
  block : int;  (** IR block id. *)
  addr : int;  (** Final virtual address. *)
  size : int;  (** Final encoded size. *)
  insts : Isa.t list;  (** Final instructions, deleted branches removed. *)
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
  addrs : int array;  (** [ordered.(i).addr], for {!Support.Isearch}. *)
  sizes : int array;  (** [ordered.(i).size]. *)
  by_func : (string, int array) Hashtbl.t;
      (** Function -> the ascending indices of its blocks in [ordered]. *)
}

type t = {
  name : string;
  entry_symbol : string;
  sections : placed list;  (** In final layout order. *)
  symbols : (string, int) Hashtbl.t;  (** Global symbol -> address. *)
  blocks : block_info array;
      (** Every placed block in link order, which is address order:
          the order the link lays pieces out. *)
  positions : (string, int array) Hashtbl.t;
      (** Function -> its blocks' positions in [blocks], indexed by
          block id; [-1] marks an id with no placed block. Read it
          through {!block_positions}. *)
  text_start : int;
  text_end : int;
  bb_maps : Objfile.Bbmap.t;  (** Merged metadata, if retained. *)
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
  positions:(string, int array) Hashtbl.t ->
  text_start:int ->
  text_end:int ->
  bb_maps:Objfile.Bbmap.t ->
  t

(** [symbol_addr t s] resolves a global symbol. *)
val symbol_addr : t -> string -> int option

(** [block_positions t f] is [f]'s entry in [t.positions]: block id ->
    position in [t.blocks], or [-1]; empty when [f] has no placed
    block. Read it once to look up many blocks of one function. *)
val block_positions : t -> string -> int array

(** [block_info t ~func ~block] looks a placed block up through
    {!block_positions}: one hash of [func], no table of blocks. *)
val block_info : t -> func:string -> block:int -> block_info option

(** [block_info_exn t ~func ~block] raises [Not_found] when absent. *)
val block_info_exn : t -> func:string -> block:int -> block_info

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
