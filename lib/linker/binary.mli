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

type t = {
  name : string;
  entry_symbol : string;
  sections : placed list;  (** In final layout order. *)
  symbols : (string, int) Hashtbl.t;  (** Global symbol -> address. *)
  blocks : (string * int, block_info) Hashtbl.t;  (** (func, block id). *)
  text_start : int;
  text_end : int;
  bb_maps : Objfile.Bbmap.t;  (** Merged metadata, if retained. *)
  by_addr : index;  (** Address-ordered blocks, built on first lookup. *)
}

(** The lazily built index behind {!find_block_by_addr}; it lives and
    dies with its binary. *)
and index

(** [make ...] assembles a binary. *)
val make :
  name:string ->
  entry_symbol:string ->
  sections:placed list ->
  symbols:(string, int) Hashtbl.t ->
  blocks:(string * int, block_info) Hashtbl.t ->
  text_start:int ->
  text_end:int ->
  bb_maps:Objfile.Bbmap.t ->
  t

(** [symbol_addr t s] resolves a global symbol. *)
val symbol_addr : t -> string -> int option

(** [block_info t ~func ~block] looks a placed block up. *)
val block_info : t -> func:string -> block:int -> block_info option

(** [block_info_exn t ~func ~block] raises [Not_found] when absent. *)
val block_info_exn : t -> func:string -> block:int -> block_info

(** [size_of_kind t kind] sums placed section sizes of [kind]. *)
val size_of_kind : t -> Objfile.Section.kind -> int

(** [total_size t] is the file-size model: the sum of all sections. *)
val total_size : t -> int

(** [text_bytes t] is the size of executable code. *)
val text_bytes : t -> int

(** [num_symbols t] counts global symbols. *)
val num_symbols : t -> int

(** [find_block_by_addr t addr] maps a virtual address to the placed
    block covering it, if any; O(log n). *)
val find_block_by_addr : t -> int -> block_info option

(** [funcs t] lists function names with placed blocks. *)
val funcs : t -> string list

(** [blocks_in_address_order t] lists every placed block sorted by final
    virtual address — the deterministic iteration order introspection
    tools need (the raw [blocks] table iterates in hash order). Shares
    the cached sorted index of {!find_block_by_addr}. *)
val blocks_in_address_order : t -> block_info list

(** [symbols_sorted t] lists (symbol, address) pairs sorted by address,
    ties broken by name — a stable walk of the symbol table for listings
    and diffs. *)
val symbols_sorted : t -> (string * int) list

(** [image_digest t] is a content digest of the observable image: the
    placed section list, every block's final address/size/instructions
    (in address order), and the sorted symbol table. Binaries built from
    the same inputs digest equal regardless of construction
    order — the byte-identity oracle behind the [--jobs] determinism
    tests. *)
val image_digest : t -> Support.Digesting.t
