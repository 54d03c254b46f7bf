(** Dynamic control flow graph reconstruction from LBR samples and the
    BB address map — no disassembly (paper §3.3).

    Taken-branch records give the taken edges; the sequential ranges
    between consecutive LBR records give fall-through edges and block
    counts; cross-function records landing on a function entry give
    call arcs. *)

(** One machine basic block, as described by the address map, with its
    accumulated sample count. *)
type mblock = {
  lo : int;  (** Final virtual address. *)
  msize : int;
  owner : string;  (** Owning function (cluster suffixes stripped). *)
  bb : int;  (** Machine-IR block id. *)
  mutable count : int;
}

(** Per-function accumulator. *)
type dfunc = {
  dname : string;
  dblocks : (int, mblock) Hashtbl.t;
  dedges : Support.Itab.t;
      (** Intra-function edge counts keyed by
          [Support.Packed.pack ~src:src_bb ~dst:dst_bb] — one immediate
          int per edge note instead of a tuple + ref. Iteration order is
          slot order; consumers sort (they always had to under
          [Hashtbl]). *)
  mutable dsamples : int;
}

(** An address-sorted block index with flat start/size arrays for
    {!Support.Isearch.covering}. Built from the binary's
    [.llvm_bb_addr_map] ({!interval_index}, Propeller's path, which
    reads no disassembly) or from the binary's own address index
    ({!build_of_blocks}). *)
type index = {
  mblocks : mblock array;  (** Address order. *)
  los : int array;  (** [mblocks.(i).lo]. *)
  msizes : int array;  (** [mblocks.(i).msize]. *)
}

type t = {
  funcs : (string, dfunc) Hashtbl.t;
  call_arcs : (string * int * string, int ref) Hashtbl.t;
      (** (caller, caller bb, callee) -> count; block granularity so the
          inter-procedural layout can place callees near call sites. *)
  block_index : index;  (** All mapped blocks. *)
}

(** [interval_index binary] builds the block index of the binary's
    [.llvm_bb_addr_map], counts zeroed. Shared with profile synthesis
    ({!Autofdo}), which needs the address->block mapping without a full
    DCFG. *)
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
    {!Linker.Binary.index} and sorts nothing. *)
val build_of_blocks : profile:Perfmon.Lbr.profile -> binary:Linker.Binary.t -> t

(** The address-map shape of one function: the part of the block index
    a layout of the function reads. *)
type shape = {
  blocks : (int * int) list;  (** [(bb, bytes)] of each mapped block, sorted. *)
  sizes : int array;
      (** Bytes by block id: those of the last mapped block of the id
          in address order, 16 where no block is mapped. *)
}

(** [shapes t funcs] builds the shapes of [funcs], keyed by name, in
    one pass over the block index; a function without mapped blocks
    gets no entry. Layout reads the hot functions only, so it never
    pays for the rest of the map. *)
val shapes : t -> dfunc list -> (string, shape) Hashtbl.t

(** [block_size shapes func bb] is the byte size of [func]'s block [bb]
    from [shapes], 16 when the block is not mapped. *)
val block_size : (string, shape) Hashtbl.t -> string -> int -> int

(** [hot_funcs t] lists functions with samples, name-sorted. *)
val hot_funcs : t -> dfunc list

(** [num_blocks t] / [num_edges t] count sampled blocks / edges. *)
val num_blocks : t -> int

val num_edges : t -> int

(** [find_block t addr] maps an address to its block by {!find_in}. *)
val find_block : t -> int -> mblock option

(** [function_order t funcs] is the names of [funcs] in hfsort (C3)
    order: sizes are the mapped bytes of each function's sampled
    blocks, weights its samples, edges the call arcs among [funcs].
    WPA's global function order and BOLT's [-reorder-functions=hfsort]
    both build this problem. *)
val function_order : t -> dfunc list -> string list
