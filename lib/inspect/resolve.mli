(** Final-layout address resolution.

    Maps any virtual address of a linked image back to the code that
    owns it: (function, basic block, placed section, fragment kind),
    with the block-relative byte offset. This is the inverse of what the
    linker did — and exactly what `perf annotate` needs to project LBR
    samples onto a listing, cold-split fragments included.

    Resolution is total: every address classifies as code, alignment
    padding inside the text segment, a placed non-text section, or
    outside the image. It is not always right: block lookups use
    {!Support.Isearch.covering}, so next to a zero-size block that
    shares its start with a non-empty one, some bytes of the non-empty
    block resolve as [Padding] instead of [Code]. *)

(** Which cluster of its function a block landed in (paper §3.4
    naming: [foo], [foo.cold], [foo.N]). *)
type fragment = Primary | Cold | Cluster of int

type location = {
  func : string;  (** Owning function (cluster suffixes stripped). *)
  block : int;  (** IR block id. *)
  block_addr : int;  (** Final address of the block's first byte. *)
  block_size : int;
  offset : int;  (** Queried address minus [block_addr]. *)
  section : string;  (** Placed section name, e.g. [".text.foo.cold"]. *)
  section_symbol : string option;  (** The cluster symbol, when bound. *)
  fragment : fragment;
}

type resolution =
  | Code of location
  | Padding of { prev : string option; next : string option }
      (** Alignment gap inside the text segment; [prev]/[next] name the
          nearest cluster symbols below and above the address. *)
  | Noncode of string  (** Inside a placed non-text section (name). *)
  | Outside  (** Not covered by any placed section. *)

type t

(** [create binary] reads the binary's address index
    ({!Linker.Binary.index}) and sorts its placed sections once;
    lookups are O(log n), all through {!Support.Isearch.covering}. *)
val create : Linker.Binary.t -> t

(** [resolve t addr] classifies [addr]. *)
val resolve : t -> int -> resolution

(** {1 Flat block index}

    The allocation-free face of the resolver: blocks addressed by their
    position in final address order, lookups over sorted flat int
    arrays ({!Support.Isearch}). The fast path for bulk consumers
    (annotation) that resolve every record of a profile and only need
    the owning block. *)

val num_blocks : t -> int

val find_block_index : t -> int -> int
(** [find_block_index t addr] is the address-order index of the block
    covering [addr], or [-1] when the search finds none (equivalently:
    {!resolve} would not return [Code _]); see the known miss of
    {!Support.Isearch}. *)

val block_at : t -> int -> Linker.Binary.block_info
(** The block at an address-order index returned by
    {!find_block_index}/{!resolve_batch}. *)

val resolve_batch : t -> int array -> int array
(** [resolve_batch t queries] resolves a whole batch of addresses to
    block indices in one sweep: [out.(j) = find_block_index t
    queries.(j)]. *)

(** [section_at t addr] finds the placed text section covering [addr]. *)
val section_at : t -> int -> Linker.Binary.placed option

(** [blocks_of_func t func] lists the function's placed blocks as
    locations in final address order — primary and cold/cluster
    fragments interleaved exactly as laid out. It reads the index's
    per-function entry, so it costs the function's blocks only. *)
val blocks_of_func : t -> string -> location list

(** [funcs t] lists function names with placed blocks, sorted. *)
val funcs : t -> string list

(** [fragment_of_symbol sym] classifies a cluster symbol by its naming
    convention ([None] means an unnamed section: primary). *)
val fragment_of_symbol : string option -> fragment

val fragment_to_string : fragment -> string
