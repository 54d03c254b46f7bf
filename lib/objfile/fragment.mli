(** Machine code carried by a text section.

    A fragment is a contiguous run of lowered basic blocks belonging to a
    single function — a *basic block cluster* in Propeller terms (paper
    §4.1). With plain function sections the fragment holds every block of
    the function; with basic block sections it holds one cluster.

    A fragment carries its relocation index, computed once by {!make}
    from the final pieces, as an ELF object carries its section sizes in
    the section headers and its relocation sites in [.rela.text]. Every
    link of a cached object reads the index instead of walking the
    instructions again, and so does the compiler's address map, which
    takes each block's size and offset from [index.sizes]. *)

type piece = {
  block : int;  (** IR block id this code was lowered from. *)
  insts : Isa.t list;  (** Lowered code, terminator branches included. *)
  is_landing_pad : bool;
}

(** The relocation index: flat arrays over the pieces, their relocation
    sites (every [Jcc], [Jmp] and [Call], in instruction order) and
    their branches (the [Jcc] and [Jmp] sites alone). The sites of
    every piece come in piece order, and piece [k]'s branches are
    numbered [branch_start.(k)] up to [branch_start.(k + 1) - 1]. *)
type index = {
  bytes : int;  (** Byte size of the whole fragment. *)
  sizes : int array;
      (** Byte size of each piece, under the encodings the pieces carry;
          a piece's offset from the fragment start is the sum of the
          sizes before it. *)
  sites : Isa.t array;
  branch_start : int array;  (** Length [pieces + 1]. *)
  pre_bytes : int array;
      (** For each branch: bytes of the non-branch instructions since
          the previous branch or the piece start. *)
  pre_count : int array;  (** For each branch: the count of those instructions. *)
}

type t = private { func : string; pieces : piece list; index : index }

(** [make ~func pieces] builds a fragment and its index. Raises
    [Invalid_argument] when [pieces] is empty. *)
val make : func:string -> piece list -> t

(** [byte_size f] sums instruction sizes over all pieces. *)
val byte_size : t -> int
