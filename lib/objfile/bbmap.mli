(** The [.llvm_bb_addr_map] metadata section (paper §3.2; LLVM
    SHT_LLVM_BB_ADDR_MAP).

    For every function the section records, per machine basic block, its
    id, offset from the function symbol, size, and flags. Phase 3 uses it
    to map LBR virtual addresses back to machine basic blocks without
    disassembly. The section is not loaded at run time, so it costs
    binary size only. *)

type entry = {
  bb_id : int;
  offset : int;  (** Byte offset from the owning fragment's symbol. *)
  size : int;  (** Code bytes of the block, terminator included. *)
  can_fallthrough : bool;
      (** Block may fall through to the next block in the layout. *)
  is_landing_pad : bool;
}

type func_map = {
  func : string;  (** Symbol the offsets are relative to. *)
  entries : entry list;  (** In layout order within the fragment. *)
}

type t = func_map list

(** [encoded_size t] models the ELF section size: a 9-byte function
    header (address + count) plus ULEB128-encoded id/offset/size/flags
    per entry. *)
val encoded_size : t -> int

(** [lookup t ~func ~offset] finds the entry covering byte [offset]
    relative to symbol [func], if any. *)
val lookup : t -> func:string -> offset:int -> entry option

val num_entries : t -> int
