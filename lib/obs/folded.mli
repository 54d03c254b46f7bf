(** flamegraph.pl folded-stack format: one ["path weight\n"] line per
    row, where [path] is a semicolon-joined frame stack and [weight] an
    integral count. The one writer shared by every producer (self
    profiles, flow-decomposed hot paths) so their outputs stay
    byte-compatible with each other and with flamegraph.pl. *)

(** [to_string rows] renders [(path, weight)] rows in list order. *)
val to_string : (string * int) list -> string

(** [micros seconds] is the integral microsecond weight used for
    host-time rows (round-half-away-from-zero). *)
val micros : float -> int
