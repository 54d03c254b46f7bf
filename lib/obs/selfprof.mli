(** The self-profiler: where the *simulator itself* spends host time
    and allocation, attributed to the same spans the simulated-clock
    {!Trace} records.

    Every {!Obs.Recorder.with_span} additionally opens a self-profile
    frame when profiling is enabled; on close, the frame's host-clock
    and GC deltas ({!Hostclock}) accumulate under the span's *path* —
    the ";"-joined names of the open span stack, e.g.
    ["round:1;phase:wpa"]. Self (exclusive) figures subtract time and
    words consumed by child spans, so a parent is never charged twice.

    Disabled (the default), a profiler costs one branch per span and
    records nothing — enabling it provably changes no simulated output
    (tested as a qcheck law: same image digest, same metrics JSON).

    Determinism contract: the set of paths and the per-path [count]s
    are functions of the deterministic span tree; host seconds and word
    counts are informational and differ run to run. Frames are opened
    and closed on the coordinator domain only (pool workers report via
    {!Obs.Trace.complete} lanes, which carry no self-profile). *)

type t

val create : unit -> t

(** [enable t] turns profiling on (idempotent; there is deliberately no
    disable — a half-profiled run renders a misleading profile). *)
val enable : t -> unit

val enabled : t -> bool

(** [reset t] drops all accumulated frames and aggregates; the enabled
    flag is preserved. *)
val reset : t -> unit

(** An open frame, as returned by {!enter}: [None] when profiling is
    disabled. *)
type frame

(** [enter t name] opens a frame under the innermost open frame.
    Callers must balance every [enter] with {!leave} (use {!with_span}
    unless interleaving with other bookkeeping, as the recorder does). *)
val enter : t -> string -> frame option

val leave : t -> frame option -> unit

(** [with_span t name f] runs [f] inside a frame (closed on raise). *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** One aggregated span path. Inclusive fields ([host_s],
    [alloc_words], GC words/collections) cover the whole subtree;
    [self_*] fields are exclusive of child spans. *)
type row = {
  path : string;
  name : string;  (** Leaf component of [path]. *)
  count : int;
  host_s : float;
  self_host_s : float;
  alloc_words : float;
  self_alloc_words : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(** [rows t] lists every path, sorted by path (deterministic order). *)
val rows : t -> row list

val num_paths : t -> int

(** A hotspot: rows merged by leaf span name, ranked by self host
    seconds (allocation words break ties). *)
type hotspot = {
  hname : string;
  hcount : int;
  hself_host_s : float;
  hhost_s : float;
  hself_alloc_words : float;
  hminor_collections : int;
  hmajor_collections : int;
}

val hotspots : ?limit:int -> t -> hotspot list

(** [hotspots_of_rows rows] ranks pre-loaded rows (the [--from FILE]
    path of [propeller stat top]). *)
val hotspots_of_rows : ?limit:int -> row list -> hotspot list

(** [folded t] is flamegraph.pl-compatible folded-stack output: one
    ["path;to;span weight"] line per path, sorted by path. [`Host]
    weighs by self microseconds, [`Alloc] by self allocated words.
    Line structure is deterministic; [`Host] weights are not. *)
val folded : ?weight:[ `Host | `Alloc ] -> t -> string

val to_json : t -> Json.t

(** [rows_of_json j] re-reads an exported profile; [Error] when [j] is
    not a self-profile tree. *)
val rows_of_json : Json.t -> (row list, string) result

(** [render_hotspots hs] is the aligned text table [propeller stat top]
    prints (top [limit] rows, default 15). *)
val render_hotspots : ?limit:int -> hotspot list -> string
