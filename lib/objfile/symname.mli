(** Symbol naming conventions for basic block clusters (paper §3.4).

    The primary (hot) cluster retains the function's own symbol; the cold
    cluster gains a [.cold] suffix; additional clusters for
    inter-procedural layout get numeric suffixes. Block-level symbols —
    used internally as relocation targets — are written [func#block]. *)

(** [primary f] is the symbol of the primary cluster: [f] itself. *)
val primary : string -> string

(** [cold f] is [f ^ ".cold"]. *)
val cold : string -> string

(** [cluster f n] is [f ^ "." ^ n] for extra clusters, [n >= 1]. *)
val cluster : string -> int -> string

(** [owner s] strips cluster suffixes, recovering the function a cluster
    symbol belongs to ([foo.cold] -> [foo], [foo.2] -> [foo]). *)
val owner : string -> string

(** [is_cold s] is true for [.cold]-suffixed symbols. *)
val is_cold : string -> bool
