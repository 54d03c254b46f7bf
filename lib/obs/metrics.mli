(** The metric registry: counters, gauges and histograms.

    Counters are monotonically increasing integers (events: cache hits,
    relaxation sweeps, resolved symbols). Gauges are last-write-wins
    floats (levels: bytes stored, modelled cycles). Histograms collect
    float observations and summarize them with percentile/stddev/median
    statistics (linear-interpolation percentiles — exact for 1–2
    samples — and population stddev).

    Exports are sorted by metric name, so a registry filled by a
    deterministic run serializes byte-identically every time. *)

type t

val create : unit -> t

(** [incr_counter t name] / [add_counter t name n] bump a counter,
    creating it at 0 first; [n < 0] raises [Invalid_argument]. *)
val incr_counter : t -> string -> unit

val add_counter : t -> string -> int -> unit

(** [counter t name] is the current value; 0 when never bumped. *)
val counter : t -> string -> int

val set_gauge : t -> string -> float -> unit

val gauge : t -> string -> float option

(** [observe t name v] appends one histogram observation. *)
val observe : t -> string -> float -> unit

type summary = {
  count : int;
  sum : float;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  p99 : float;
}

(** [summary t name] summarizes a histogram; [None] when empty. *)
val summary : t -> string -> summary option

(** {2 Summary statistics}

    The one implementation of the rules the summaries use, shared with
    [Support.Stats] so every figure in an export or a bench report
    follows the same rule. *)

(** [percentile p xs] is the [p]-th percentile (0..100) by linear
    interpolation between closest ranks on a sorted copy (numpy's
    "linear"): any percentile of a singleton is that sample, and
    [percentile 50.] equals {!median} for every length. Raises
    [Invalid_argument] on the empty list. *)
val percentile : float -> float list -> float

(** [median xs] is the middle element of a sorted copy, or the mean of
    the two middle elements for even lengths; 0 for the empty list. *)
val median : float list -> float

(** [sum xs] sums the list. *)
val sum : float list -> float

(** [mean xs] is the arithmetic mean; 0 for the empty list. *)
val mean : float list -> float

(** [stddev xs] is the population standard deviation; 0 for the empty
    list and for singletons. *)
val stddev : float list -> float

(** Sorted views for exporters. *)
val counters : t -> (string * int) list

val gauges : t -> (string * float) list

val summaries : t -> (string * summary) list

(** [reset t] drops every metric. *)
val reset : t -> unit

(** [to_json t] is the metrics report as a JSON tree. *)
val to_json : t -> Json.t

(** [report t] is a fixed-width plain-text rendering of the registry. *)
val report : t -> string
