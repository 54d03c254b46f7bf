(** Instruction TLB: a 4 KiB-page structure plus a small 2 MiB-page
    structure, matching Skylake's 128-entry 4K iTLB and 8-entry 2M iTLB
    (paper §5.5 discusses the 8x2M reach explicitly). When the text
    segment is mapped with hugepages, lookups go to the 2M side. *)

type params = {
  entries_4k : int;
  ways_4k : int;
  entries_2m : int;  (** Fully associative. *)
}

val skylake : params

type t

(** [create ~page_scale_bits p ~hugepages] builds the TLB.
    [page_scale_bits] shrinks page sizes by 2^bits — the
    pressure-preserving counterpart to generating programs at reduced
    scale (a 1/64-scale program with 1/64-reach pages sees the paper's
    TLB pressure). Page sizes are clamped to >= 512 B (4K side) and
    >= 16 KiB (2M side). Raises [Invalid_argument] unless [ways_4k]
    and [entries_2m] are at least 1 and [entries_4k] is a multiple of
    [ways_4k], or when {!Cache.create} rejects the side it builds. *)
val create : page_scale_bits:int -> params -> hugepages:bool -> t

(** [access t addr] returns [true] on hit. *)
val access : t -> int -> bool

(** [page t addr] is the page number (dedupe key). *)
val page : t -> int -> int

