(** Set-associative cache with LRU replacement, used for L1i, L2, L3
    and, with other geometries, for the DSB, BTB and iTLB.

    Each set keeps its most recent line in a one-word-per-set MRU array
    and its other [ways - 1] lines, most recent first, in a second
    array. An empty MRU way means an empty set. The second array is
    allocated on the first miss that finds a set already holding a
    line (never for [ways = 1]), so a fresh cache costs [sets] words,
    and one whose sets each see a single line never costs more. *)

type params = {
  sets : int;  (** Power of two. *)
  ways : int;  (** At least 1. *)
  line_bytes : int;  (** Power of two. *)
}

(** Skylake-like 32 KiB, 8-way, 64 B lines. *)
val l1i_params : params

(** Skylake-like 1 MiB unified L2 (modelled for code only), 16-way. *)
val l2_params : params

type t

(** [create p] builds an empty cache. Raises [Invalid_argument] unless
    [p.sets] and [p.line_bytes] are powers of two and [p.ways >= 1]. *)
val create : params -> t

(** [access t addr] touches the line containing [addr]; returns [true]
    on hit. *)
val access : t -> int -> bool

