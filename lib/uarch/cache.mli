(** Set-associative cache with LRU replacement, used for L1i, L2, L3
    and, with other geometries, for the DSB, BTB and iTLB. *)

type params = {
  sets : int;  (** Power of two. *)
  ways : int;
  line_bytes : int;  (** Power of two. *)
}

(** Skylake-like 32 KiB, 8-way, 64 B lines. *)
val l1i_params : params

(** Skylake-like 1 MiB unified L2 (modelled for code only), 16-way. *)
val l2_params : params

type t

val create : params -> t

(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. *)
val access : t -> int -> bool

val reset : t -> unit
