(** One telemetry scope: a simulated {!Clock}, a {!Metrics} registry, a
    span {!Trace} sharing that clock, a host-time/GC {!Selfprof} and a
    ring-buffer {!Flight} recorder.

    Library code records against the recorder its caller passes in
    (inside a [Support.Ctx.t]; [Buildsys.Driver.env] carries one). There
    is no process-wide recorder: each run, CLI command or test creates
    its own, so two identical runs export byte-identical metrics.

    Every {!with_span} and metric call also feeds the flight recorder
    (bounded, O(1)); spans additionally feed the self-profiler when
    {!enable_self_profile} was called. Self-profiling never alters the
    simulated outputs — metrics, traces and image digests are
    byte-identical with it on or off (qcheck law in the test suite). *)

type t

val create : ?flight_capacity:int -> unit -> t

val trace : t -> Trace.t

(** [selfprof t] is the host-time/GC self-profile of this scope. *)
val selfprof : t -> Selfprof.t

(** [enable_self_profile t] arms span-attributed host-clock and GC
    profiling ([--self-profile]); off by default and free when off. *)
val enable_self_profile : t -> unit

val with_span : ?args:(string * Trace.arg) list -> t -> string -> (unit -> 'a) -> 'a

(** [emit_span t name ~start ~duration] forwards to {!Trace.complete}:
    an externally-timed span, placed on lane [tid] (per-domain fan-out
    reporting for parallel phases). *)
val emit_span :
  ?tid:int ->
  ?args:(string * Trace.arg) list ->
  t ->
  string ->
  start:float ->
  duration:float ->
  unit

(** [now t] is the current simulated time of [t]'s clock. *)
val now : t -> float

val span_args : t -> (string * Trace.arg) list -> unit

(** [advance t dt] moves simulated time forward by [dt] seconds. *)
val advance : t -> float -> unit

val incr_counter : t -> string -> unit

val add_counter : t -> string -> int -> unit

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit

(** [flight_note t name detail] records a [Note] flight event — fault
    degradations and other postmortem breadcrumbs that are not metrics. *)
val flight_note : t -> string -> string -> unit

(** [counter_sample t name values] records a trace counter event. *)
val counter_sample : t -> string -> (string * float) list -> unit

(* Exporters. *)

(** [trace_json t] is the Chrome trace-event file contents. *)
val trace_json : t -> string

(** [metrics_json t] is the metrics report as compact JSON. *)
val metrics_json : t -> string

(** [metrics_report t] is the plain-text metrics report. *)
val metrics_report : t -> string

(** [flight_dump t] is the deterministic postmortem text of the last K
    events. *)
val flight_dump : t -> string
