(** A compilation unit (one source module): the granularity at which the
    distributed build system compiles, caches and — for Propeller —
    re-runs codegen (paper §3.1, §3.4). *)

type t = {
  name : string;
  funcs : Func.t list;
  rodata : int;  (** Read-only data bytes contributed by the unit. *)
  data : int;  (** Mutable data bytes contributed by the unit. *)
}

val make : name:string -> ?rodata:int -> ?data:int -> Func.t list -> t

(** [code_bytes u] sums function body bytes. *)
val code_bytes : t -> int

val num_funcs : t -> int

val num_blocks : t -> int

(** [mem u fname] tells whether the unit defines function [fname]. *)
val mem : t -> string -> bool
