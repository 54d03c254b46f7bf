(** Small statistics helpers used by benches and the cost models.
    [sum], [mean], [percentile], [stddev] and [median] are
    {!Obs.Metrics}'s, so a bench figure and an exported summary follow
    one rule. *)

(** [mean xs] is the arithmetic mean; 0 for the empty list. *)
val mean : float list -> float

(** [geomean xs] is the geometric mean of positive values; 0 for empty. *)
val geomean : float list -> float

(** [percentile p xs] is the [p]-th percentile (0..100) by linear
    interpolation between closest ranks on a sorted copy (numpy's
    "linear" method): exact for small
    samples — any percentile of a singleton is that sample, and
    [percentile 50.] equals {!median} for every length. Raises
    [Invalid_argument] on empty input. *)
val percentile : float -> float list -> float

(** [sum xs] sums the list. *)
val sum : float list -> float

(** [stddev xs] is the population standard deviation; 0 for the empty
    list (and for singletons, by the formula). *)
val stddev : float list -> float

(** [median xs] is the true median: the middle element of a sorted copy,
    or the mean of the two middle elements for even lengths; 0 for the
    empty list (where [percentile] raises). *)
val median : float list -> float

(** [ratio_pct a b] is [(a - b) / b * 100.], the percent change of [a]
    relative to [b]. *)
val ratio_pct : float -> float -> float

(** Pearson correlation coefficient of paired samples, in [-1, 1].
    0 for fewer than two pairs or when either side is constant. *)
val pearson : (float * float) list -> float
