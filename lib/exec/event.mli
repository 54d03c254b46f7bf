(** Events emitted by the execution engine.

    The engine streams two main kinds of events — sequential instruction
    fetches and control transfers — so downstream consumers (LBR
    sampler, software sampler, PEBS, micro-architecture simulator,
    heat-map builder) never need the whole trace in memory.

    {1 Flat event tape}

    The one transport between the engine and every consumer. Events are
    encoded as one tag byte plus three int operands in preallocated
    parallel arrays; the engine hands the tape to a drain function when
    it fills and at end of run. Every consumer is such a drain
    ([Uarch.Core.consume], [Uarch.Heatmap.consume],
    [Perfmon.Lbr.consume], [Perfmon.Sampler.consume],
    [Perfmon.Pebs.consume]): it walks the arrays in a monomorphic loop
    and reads the event kinds it needs, in emission order. *)

type branch_kind =
  | Cond  (** Conditional branch (emitted for taken and not-taken). *)
  | Uncond  (** Unconditional direct jump. *)
  | Indirect  (** Jump-table dispatch. *)
  | Call  (** Direct or indirect call. *)
  | Ret

type tape = {
  tags : Bytes.t;  (** Per-event tag: {!tag_fetch} … {!tag_request}. *)
  a : int array;  (** fetch: addr; branch: src; dmiss: src; request: index. *)
  b : int array;  (** fetch: len; branch: dst. *)
  c : int array;  (** fetch: insts; branch: [(kind lsl 1) lor taken]. *)
  mutable len : int;  (** Events currently on the tape. *)
}
(** A fetch [(addr, len, insts)] is [len] code bytes holding [insts]
    instructions executed sequentially from [addr]. A branch
    [(src, dst)] is a control transfer retiring at [src] (its end
    address) and heading to [dst]; only a fall-through conditional is
    not taken, and its [dst] is the next address. A dmiss [src] is a
    delinquent load retiring at [src] that missed the data caches (no
    software prefetch covered it). A request [i] marks request [i]
    completed. *)

val tape_capacity : int
(** Fixed capacity of every tape (events between flushes). *)

val create_tape : unit -> tape

val tag_fetch : char

val tag_branch : char

val tag_dmiss : char

val tag_request : char

val kind_to_int : branch_kind -> int
(** Dense 0-4 code of a branch kind (stable across runs), in
    declaration order: [Cond] is 0, [Ret] is 4. *)

val encode_branch_meta : kind:branch_kind -> taken:bool -> int
(** The [c] operand of a branch event. *)

val null : tape -> unit
(** The drain that ignores everything. The engine recognizes it and
    writes no tape at all. *)
