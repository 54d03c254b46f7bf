(** Events emitted by the execution engine.

    The engine streams two kinds of events — sequential instruction
    fetches and control transfers — so downstream consumers (LBR
    sampler, micro-architecture simulator, heat-map builder) never need
    the whole trace in memory. *)

type branch_kind =
  | Cond  (** Conditional branch (emitted for taken and not-taken). *)
  | Uncond  (** Unconditional direct jump. *)
  | Indirect  (** Jump-table dispatch. *)
  | Call  (** Direct or indirect call. *)
  | Ret

type sink = {
  on_fetch : int -> int -> int -> unit;
      (** [on_fetch addr len insts]: [len] code bytes holding [insts]
          instructions executed sequentially starting at [addr]. *)
  on_branch : src:int -> dst:int -> kind:branch_kind -> taken:bool -> unit;
      (** A control transfer instruction retiring at [src] (its end
          address), heading to [dst]. [taken = false] only for
          fall-through conditionals ([dst] is then the next address). *)
  on_dmiss : src:int -> unit;
      (** A delinquent load retiring at [src] missed the data caches
          (not covered by a software prefetch). *)
  on_request : int -> unit;  (** Request [i] completed. *)
}

(** A sink that ignores everything. *)
val null : sink

(** {1 Flat event tape}

    The zero-allocation transport between the engine and its hottest
    consumers. Events are encoded as one tag byte plus three int
    operands in preallocated parallel arrays; the engine flushes the
    tape to a drain function when it fills and at end of run. Consumers
    either walk the arrays directly in a monomorphic loop
    ([Uarch.Core.consume], [Perfmon.Lbr.consume]) or adapt the tape
    back onto a closure {!sink} with {!replay} — both observe the
    identical event stream in emission order. *)

type tape = {
  tags : Bytes.t;  (** Per-event tag: {!tag_fetch} … {!tag_request}. *)
  a : int array;  (** fetch: addr; branch: src; dmiss: src; request: index. *)
  b : int array;  (** fetch: len; branch: dst. *)
  c : int array;  (** fetch: insts; branch: [(kind lsl 1) lor taken]. *)
  mutable len : int;  (** Events currently on the tape. *)
}

val tape_capacity : int
(** Fixed capacity of every tape (events between flushes). *)

val create_tape : unit -> tape

val tag_fetch : char

val tag_branch : char

val tag_dmiss : char

val tag_request : char

val kind_to_int : branch_kind -> int
(** Dense 0-4 code of a branch kind (stable across runs). *)

val encode_branch_meta : kind:branch_kind -> taken:bool -> int
(** The [c] operand of a branch event. *)

val replay : tape -> sink -> unit
(** [replay tape sink] redelivers every taped event to [sink] in
    emission order. *)
