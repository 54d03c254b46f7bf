(** Branch target buffer + front-end resteer model.

    A taken branch whose source is not in the BTB forces a front-end
    resteer ([baclears.any], Table 4 B1) and allocates the entry.
    Not-taken conditionals do not allocate, which is why layouts that
    convert taken branches into fall-throughs relieve BTB pressure
    (paper §5.5 "Branches"). *)

type params = { entries : int; ways : int }

val skylake : params

type t

(** [create p] builds an empty BTB of [p.entries / p.ways] sets.
    Raises [Invalid_argument] unless [p.ways >= 1] and [p.entries] is a
    power-of-two multiple of [p.ways]. *)
val create : params -> t

(** [taken t ~src] records a taken branch at [src]; returns [true] when
    it resteered (BTB miss). *)
val taken : t -> src:int -> bool

val reset : t -> unit
