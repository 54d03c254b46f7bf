(** Executable image: the IR program fused with the linked binary's
    final addresses, compiled for fast interpretation.

    For each basic block the image stores the fetch segments (inline
    data excluded — it occupies space but is never executed), the call
    sites with their end offsets, and the terminator. Control-flow
    decisions are *not* stored: they are made by the interpreter from
    stateless hashes so that the logical trace is identical across
    layouts of the same program.

    A function is compiled the first time {!block} enters it: a
    profiling run enters a small share of a program's functions, and
    the rest never pay for compilation.

    An image is domain-local: the first {!block} call on a function
    writes its compiled blocks into the image, unsynchronized. No code
    shares an image across a domain pool; every engine run builds or
    receives its image on the domain that runs it. *)

type op =
  | Run of int * int * int
      (** [(offset, len, insts)]: sequential code, instruction count
          included for retirement accounting. *)
  | Do_call of { site_end : int; callee_idx : int array; callee_cum : float array }
      (** Call retiring at block offset [site_end]. Callee names are
          pre-resolved to dense function indices at build time (the
          interpreter never looks up a string); a single-entry
          [callee_idx] is a direct call. [callee_cum] holds the
          left-to-right partial sums of the virtual-call weights, so the
          interpreter's weighted pick is pure comparisons. *)
  | Do_dload of { site_end : int; miss_prob : float; covered : bool }
      (** Delinquent load; [covered] when a software prefetch precedes
          it in the same block (paper §3.5). *)

type xblock = {
  addr : int;
  size : int;
  ops : op array;
  term : Ir.Term.t;
  term_cum : float array;
      (** Partial sums of [Switch] case probabilities ([[||]] for other
          terminators), precomputed for the interpreter's weighted pick. *)
  uid : int;
      (** Globally unique id, numbering the program's blocks from 1 in
          program order; feeds the stateless coin. *)
  mutable succ0 : xblock;
      (** [Jump] target / [Branch] taken successor, patched once all
          blocks of the function exist (a shared dummy before that). The
          interpreter follows these record fields instead of re-indexing
          the per-function block array on every transition. *)
  mutable succ1 : xblock;  (** [Branch] fallthrough successor. *)
  mutable succ_tab : xblock array;
      (** [Switch] successors in table order; [[||]] otherwise. *)
}

type t

(** [build program binary] fuses the two views. Raises
    [Invalid_argument] when a program block is missing from the binary
    (they must describe the same build); every block is checked here,
    although functions compile later. *)
val build : Ir.Program.t -> Linker.Binary.t -> t

(** [func_index t name] is the dense index of a function. *)
val func_index : t -> string -> int

(** [block t ~func_idx ~block] fetches a compiled block, compiling its
    function on the first call that enters it. *)
val block : t -> func_idx:int -> block:int -> xblock

(** [entry_func t] is the index of the program's main. *)
val entry_func : t -> int

val num_blocks : t -> int
