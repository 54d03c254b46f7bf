(** Decoded stream buffer (uop cache) model.

    The DSB caches decoded uops keyed by 32-byte code windows; it is
    sensitive to code alignment and to the number of distinct windows
    the front end touches. Layout changes that pack hot code tightly
    usually help large applications but can *increase* DSB misses on
    small programs whose working set already fits — the effect the paper
    reports on SPEC (§5.4). *)

type params = { windows : int; ways : int; window_bytes : int }

val skylake : params

type t

(** [create p] builds an empty DSB of [p.windows / p.ways] sets.
    Raises [Invalid_argument] unless [p.ways >= 1], [p.windows] is a
    power-of-two multiple of [p.ways] and [p.window_bytes] is a power
    of two. *)
val create : params -> t

(** [access t addr] touches the window containing [addr]; [true] on
    hit. *)
val access : t -> int -> bool

val reset : t -> unit
