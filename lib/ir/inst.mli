(** IR-level (pre-codegen) instructions.

    Unlike {!Isa.t}, IR instructions carry semantic call information (the
    callee set of virtual calls) that the backend and the whole-program
    analyses need; plain computation is abstracted to a byte footprint. *)

type t =
  | Compute of int  (** Straight-line ALU work occupying [n] code bytes. *)
  | MemLoad of int  (** Load occupying [n] code bytes. *)
  | DelinquentLoad of { bytes : int; miss_prob : float }
      (** A load with poor data locality: it misses the data caches with
          [miss_prob] unless covered by a software prefetch (paper
          §3.5's post-link prefetch insertion). *)
  | MemStore of int  (** Store occupying [n] code bytes. *)
  | DirectCall of string  (** Call to a known function symbol. *)
  | VirtualCall of { callees : (string * float) array }
      (** Indirect call; [callees] pairs each possible target with its
          true runtime probability (summing to 1). *)
  | JumpTableData of int
      (** [n] bytes of data materialised inside the instruction stream. *)

(** [byte_size i] is the code-bytes footprint after lowering: calls are 5
    bytes, virtual calls 3, data verbatim. *)
val byte_size : t -> int

(** [is_call i] is true for direct and virtual calls. *)
val is_call : t -> bool

(** [callees i] enumerates possible callees with probabilities; a direct
    call yields its single target with probability 1. *)
val callees : t -> (string * float) list

(** [render b i] appends [i]'s one-line text to [b]. *)
val render : Buffer.t -> t -> unit

(** [pp] prints the {!render} text. *)
val pp : Format.formatter -> t -> unit
