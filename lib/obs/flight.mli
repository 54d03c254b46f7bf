(** The flight recorder: a bounded ring buffer of the last K span and
    metric events, dumped on crash or fault-path degradation for
    postmortems.

    Always on and O(1) per event, so instrumented code records
    unconditionally. The text {!dump} contains only replay-deterministic
    fields (sequence number, simulated time, kind, name, detail) — two
    identical runs dump identical bytes. *)

type kind = Span_begin | Span_end | Span_complete | Counter | Gauge | Observe | Note

type t

(** [create ()] makes a recorder holding the last [capacity] (default
    512) events; older events are overwritten. *)
val create : ?capacity:int -> unit -> t

val record : t -> sim:float -> kind -> string -> string -> unit

(** [dump t] is the deterministic postmortem text (no host times). *)
val dump : t -> string
