(** An IR function: an array of basic blocks with block 0 as entry. *)

type attrs = {
  exported : bool;  (** Visible outside its compilation unit. *)
  has_exceptions : bool;  (** Contains landing pads / call-site tables. *)
  has_inline_asm : bool;
      (** Hand-written assembly: exempt from block reordering and a
          hazard for disassembly-driven tools (paper §1.1, §2.4). *)
}

type t = {
  name : string;  (** Global symbol name; unique within a program. *)
  blocks : Block.t array;  (** [blocks.(i).id = i]; block 0 is entry. *)
  attrs : attrs;
}

val default_attrs : attrs

(** [make ~name ?attrs blocks] checks the block-id invariant and that all
    terminator targets are in range; raises [Invalid_argument]
    otherwise. *)
val make : name:string -> ?attrs:attrs -> Block.t array -> t

val entry : t -> Block.t

val block : t -> int -> Block.t

val num_blocks : t -> int

(** [code_bytes f] is the total body byte size over all blocks
    (terminators excluded). *)
val code_bytes : t -> int

(** [calls f] lists (callee, probability-weighted-by-nothing) pairs over
    all blocks; used to build static call graphs. *)
val calls : t -> (string * float) list

val pp : Format.formatter -> t -> unit

(** [feed st f] feeds [st] exactly the bytes
    [Format.asprintf "%a" pp f] returns, with no intermediate string.
    Build keys digest these bytes. *)
val feed : Support.Digesting.state -> t -> unit
