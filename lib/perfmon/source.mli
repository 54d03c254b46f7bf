(** Where a relink profile comes from.

    [Lbr] is the hardware last-branch-record path the paper assumes:
    taken-branch records with direction and mispredict bits. [Sampled]
    is the portable pprof-style fallback — periodic software stack
    samples with no branch bits at all — for clouds that expose no
    performance counters (the Go PGO / AutoFDO regime). *)

type t = Lbr | Sampled

val to_string : t -> string

(** All sources, in declaration order — for CLI enums and help text. *)
val all : t list
