(** Nested span tracing on the simulated {!Clock}.

    A span covers the simulated-time interval of one unit of work
    (a pipeline phase, one distributed build, one link). Spans nest via
    a stack: a span opened while another is open becomes its child.
    Counter samples record named values at the current simulated time.

    {!to_chrome_json} exports everything in the Chrome trace-event
    format (an object with a ["traceEvents"] array of ["ph":"X"]
    complete-duration events and ["ph":"C"] counter events, all on
    process 1), directly loadable in Perfetto / chrome://tracing.
    Timestamps are integral microseconds of simulated time. *)

type arg = Int of int | Float of float | Str of string

type span = {
  id : int;  (** Creation order; root span of a run is 0. *)
  name : string;
  start : float;  (** Simulated seconds at open. *)
  duration : float;  (** Simulated seconds between open and close. *)
  depth : int;  (** Nesting depth; 0 for top-level spans. *)
  tid : int;  (** Chrome-trace lane; 1 for stack spans, one lane per
                  pool domain for parallel fan-out spans. *)
  args : (string * arg) list;
}

type t

val create : Clock.t -> t

(** [with_span t name ?args f] opens a span, runs [f], and closes the
    span when [f] returns (or raises — the span is closed either way,
    so the trace stays well-nested). *)
val with_span : ?args:(string * arg) list -> t -> string -> (unit -> 'a) -> 'a

(** [complete ?tid ?args t name ~start ~duration] records an
    already-timed span on lane [tid] (default 1). This is how parallel
    phases report per-domain fan-out — the coordinator commits one span
    per worker domain after the batch, keeping the trace deterministic
    in structure while exposing the concurrency in Perfetto. *)
val complete :
  ?tid:int ->
  ?args:(string * arg) list ->
  t ->
  string ->
  start:float ->
  duration:float ->
  unit

(** [set_args t args] appends [args] to the innermost open span (for
    values only known at the end of the work). No-op when no span is
    open. *)
val set_args : t -> (string * arg) list -> unit

(** [counter t name values] records a counter sample at the current
    simulated time, e.g. [counter t "buildsys.cache" ["hits", 12.; ...]]. *)
val counter : t -> string -> (string * float) list -> unit

(** [num_events t] counts exportable events (spans + counter samples). *)
val num_events : t -> int

val to_chrome_json : t -> Json.t
