(** Dynamic control flow graph reconstruction from LBR samples and the
    BB address map — no disassembly (paper §3.3).

    Taken-branch records give the taken edges; the sequential ranges
    between consecutive LBR records give fall-through edges and block
    counts; cross-function records landing on a function entry give
    call arcs.

    The graph is keyed on the block index's numbering: sample counts
    by index position, and the sampled functions' blocks in one
    function-major order, so every reader walks sorted arrays. *)

(** One machine basic block, as described by the address map. *)
type mblock = {
  lo : int;  (** Final virtual address. *)
  msize : int;
  owner : string;  (** Owning function (cluster suffixes stripped). *)
  bb : int;  (** Machine-IR block id. *)
}

(** An address-sorted block index with flat start/size arrays for
    {!Support.Isearch.covering}. Built from the binary's
    [.llvm_bb_addr_map] ({!interval_index}, Propeller's path, which
    reads no disassembly) or from the binary's own address index
    ({!build_of_blocks}). No two entries share an [(owner, bb)]: the
    linker rejects duplicate symbols and each block id lies in one
    cluster. *)
type index = {
  mblocks : mblock array;  (** Address order. *)
  los : int array;  (** [mblocks.(i).lo]. *)
  msizes : int array;  (** [mblocks.(i).msize]. *)
}

(** One sampled function: a range of {!t.order} and a range of
    {!t.edges}. *)
type dfunc = {
  name : string;
  first : int;  (** Rank of its first block in [order]. *)
  last : int;  (** One past the rank of its last block. *)
  efirst : int;  (** Its first intra-function edge in [edges]. *)
  elast : int;  (** One past its last edge. *)
  samples : int;  (** Sum of its blocks' counts. *)
}

type t = {
  block_index : index;  (** All mapped blocks. *)
  counts : int array;  (** Samples by index position; every note is positive. *)
  order : int array;
      (** Index positions of every mapped block of the sampled
          functions, function-major: by [(owner, bb)]. A position's
          place in this array is its {e rank}. A function's clusters may
          lie far apart in address order; here they are one range. *)
  funcs : dfunc array;
      (** The sampled functions, name-sorted; a function's position here
          is its number. *)
  edges : int array;
      (** Intra-function edges as [Support.Packed.pack ~src ~dst] of
          ranks, sorted: grouped by function, then by [(src bb, dst bb)]. *)
  edge_counts : int array;  (** [edge_counts.(k)] is edge [k]'s count. *)
  arcs : int array;
      (** Call arcs as [Support.Packed.pack ~src:caller_rank ~dst:callee],
          [callee] a function number, sorted. Arcs from a function
          without samples are dropped: no layout places them. *)
  arc_counts : int array;
}

(** [interval_index binary] builds the block index of the binary's
    [.llvm_bb_addr_map]. Shared with profile synthesis ({!Autofdo}) and
    prefetch analysis ({!Prefetch}), which need the address->block
    mapping without a DCFG. *)
val interval_index : Linker.Binary.t -> index

(** [find_in idx addr] is the index and block of a block containing
    [addr]: {!Support.Isearch.covering}, with its known miss next to
    zero-size blocks. *)
val find_in : index -> int -> (int * mblock) option

(** [build ~profile ~binary] reconstructs the DCFG from the binary's
    [.llvm_bb_addr_map] (Propeller's path). Raises [Invalid_argument]
    when [binary] has no address map. *)
val build : profile:Perfmon.Lbr.profile -> binary:Linker.Binary.t -> t

(** [build_of_blocks ~profile ~binary] reconstructs the DCFG from the
    binary's placed blocks — the (idealised) product of disassembly,
    used by the BOLT baseline, which has no metadata section. It reads
    {!Linker.Binary.index}. *)
val build_of_blocks : profile:Perfmon.Lbr.profile -> binary:Linker.Binary.t -> t

(** [block t rank] is the block of that rank. *)
val block : t -> int -> mblock

(** [count t rank] is its sample count. *)
val count : t -> int -> int

(** [hot_ranks t d] lists the blocks a layout of [d] places, as ranks,
    bb-ascending: its sampled blocks and its entry block, which is
    always mapped (the primary cluster starts with it), so the first. *)
val hot_ranks : t -> dfunc -> int list

(** [sampled_bytes t d] is the mapped size of [d]'s sampled blocks. *)
val sampled_bytes : t -> dfunc -> int

(** [num_blocks t] / [num_edges t] count sampled blocks / edges. *)
val num_blocks : t -> int

val num_edges : t -> int

(** [find_block t addr] maps an address to its block by {!find_in}. *)
val find_block : t -> int -> mblock option

(** [function_order t funcs] is the names of [funcs] (name-sorted
    functions of [t]) in hfsort (C3) order: sizes are the mapped bytes
    of each function's sampled blocks, weights its samples, edges the
    call arcs among [funcs]. WPA's global function order and BOLT's
    [-reorder-functions=hfsort] both build this problem. *)
val function_order : t -> dfunc list -> string list
