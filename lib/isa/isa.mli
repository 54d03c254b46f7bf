(** Abstract x86-64-like instruction set.

    The simulator never executes real machine code; what matters for
    Propeller are instruction *byte sizes* (they drive icache/iTLB
    behaviour and binary-size accounting), *branch encodings* (short vs
    long forms drive linker relaxation, paper §4.2), and *symbolic branch
    targets* (they become static relocations). This module defines exactly
    that surface.

    Sizes follow x86-64 conventions: conditional jumps are 2 bytes (rel8)
    or 6 bytes (0F 8x rel32); unconditional jumps 2 or 5 bytes; direct
    calls 5 bytes; returns 1 byte. *)

(** Condition codes for conditional branches. Reversal ({!Cond.negate}) is
    used by the linker when it turns a taken branch into a fall-through. *)
module Cond : sig
  type t = Eq | Ne | Lt | Ge | Le | Gt

  val negate : t -> t

  val to_string : t -> string

  val equal : t -> t -> bool
end

(** Branch target, symbolic until link time. *)
module Target : sig
  type t =
    | Block of { func : string; block : int }
        (** A basic block, identified by owning function and block id. *)
    | Func of string  (** A function entry, by symbol name. *)

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val to_string : t -> string

  (** [symbol t] is the link-time symbol name the target resolves
      through: ["func"] or ["func#block"]. *)
  val symbol : t -> string
end

(** Short/long encoding of a PC-relative branch. Codegen with basic block
    sections must emit [Long] (offsets unknown until link time, §4.2);
    the linker relaxation pass shrinks to [Short] where the final offset
    fits in a signed byte. *)
type encoding = Short | Long

type t =
  | Alu of int  (** Generic computation occupying [n] bytes, 1..15. *)
  | Load of int  (** Memory load, [n] bytes. *)
  | Store of int  (** Memory store, [n] bytes. *)
  | Jcc of { cond : Cond.t; target : Target.t; encoding : encoding }
      (** Conditional PC-relative branch. *)
  | Jmp of { target : Target.t; encoding : encoding }
      (** Unconditional PC-relative branch. *)
  | Call of Target.t  (** Direct call, 5 bytes. *)
  | IndirectCall  (** Register-indirect call, 3 bytes. *)
  | IndirectJmp  (** Register-indirect jump (jump tables), 3 bytes. *)
  | Ret  (** Return, 1 byte. *)
  | Prefetch  (** Software data prefetch (prefetcht0), 5 bytes. *)
  | Nop of int  (** Padding/alignment, [n] bytes. *)
  | InlineData of int
      (** Data embedded in the text stream (jump tables, constants):
          [n] bytes that are *not* instructions. A deliberate hazard for
          disassembly-driven tools (paper §2.4). *)

(** [size i] is the encoded size of [i] in bytes. *)
val size : t -> int

(** [jcc_size e] and [jmp_size e] are the encoded sizes of the two branch
    families under encoding [e]. *)
val jcc_size : encoding -> int

val jmp_size : encoding -> int

(** [fits_short offset] tells whether a PC-relative displacement fits the
    rel8 short form. [offset] is (target - end_of_instruction). *)
val fits_short : int -> bool

(** [is_branch i] is true for [Jcc] and [Jmp]. *)
val is_branch : t -> bool

(** [is_control_transfer i] is true for branches, calls and returns. *)
val is_control_transfer : t -> bool

(** [branch_target i] is the symbolic target of a branch/call, if any. *)
val branch_target : t -> Target.t option

(** [with_target i target] replaces the symbolic target of a branch/call.
    Raises [Invalid_argument] for non-branching instructions. *)
val with_target : t -> Target.t -> t

val to_string : t -> string
