(** Bench-trajectory comparison: diff two BENCH_*.json files (see
    EXPERIMENTS.md for the schema) and flag regressions.

    Both files are flattened to [path -> number] maps — benchmark array
    entries are keyed by their ["name"] field, so
    [benchmarks.505.mcf.speedup_pct.propeller] is stable across
    reorderings. Only the *judged* metrics (a fixed allowlist of path
    suffixes with a better-direction each) enter the verdict; raw
    counters travel in the file for humans but never fail a build.

    A judged metric present in the baseline but absent from the current
    file is reported in [missing] and fails {!ok} — schema erosion is a
    regression too. The reverse is tolerated: a baseline whose
    [schema_version] predates the current file's compares the judged
    metrics both sides have and reports the rest in [notes]
    (informational), so extending the schema never forces a flag-day
    baseline regeneration. *)

type direction = Higher | Lower  (** Which way is better. *)

(** One allowlist entry: a flattened-path suffix and its better direction. *)
type rule = { suffix : string; direction : direction }

type verdict = {
  metric : string;  (** Flattened path. *)
  baseline : float;
  current : float;
  delta_pct : float;
      (** Relative change in percent; computed against
          [max |baseline| 1.0] so near-zero baselines degrade to
          absolute deltas instead of exploding. *)
  direction : direction;
  regressed : bool;  (** Moved the wrong way past the threshold. *)
  improved : bool;  (** Moved the right way past the threshold. *)
}

type outcome = {
  verdicts : verdict list;  (** Judged metrics present in both files. *)
  missing : string list;  (** Judged metrics the current file lost. *)
  notes : string list;
      (** Informational: schema-skew explanation and judged metrics the
          current file gained over an older baseline. Never fail {!ok}. *)
}

(** The allowlist of judged metrics. *)
val judged : rule list

(** The canary-judgment allowlist of a fleet rollout: per-machine
    time-series aggregates ([fleet.cycles_per_request],
    [fleet.fall_through_rate], [fleet.mispredict_rate]) compared
    between a canary slice and its control slice. *)
val fleet_rules : rule list

(** [compare ?threshold_pct ?rules ~baseline ~current] diffs two parsed
    bench JSON trees under the [rules] allowlist (default {!judged};
    fleet rollouts pass {!fleet_rules}). Errors on non-object input or
    when the baseline's schema_version is *newer* than the current
    file's; an older baseline degrades gracefully (see [notes]).
    [threshold_pct] defaults to 5.0. *)
val compare :
  ?threshold_pct:float ->
  ?rules:rule list ->
  baseline:Obs.Json.t ->
  current:Obs.Json.t ->
  unit ->
  (outcome, string) result

(** [regressions o] is the subset of verdicts that regressed. *)
val regressions : outcome -> verdict list

(** [ok o] is true when nothing regressed and nothing judged went
    missing — the comparator's exit-code predicate. [notes] never
    affect it. *)
val ok : outcome -> bool

(** [render o] is a plain-text report (one line per judged metric,
    regressions marked, NOTE lines last). CLI consumers should prefer
    the split pair below so informational notes never pollute a piped
    stdout. *)
val render : outcome -> string

(** [render_verdicts o] is the machine-parseable half of {!render}:
    verdict and MISSING lines only — every line starts with a fixed
    mark ([ok]/[improved]/[REGRESSED]/[MISSING]), so piped consumers
    can split on whitespace. *)
val render_verdicts : outcome -> string

(** [render_notes o] is the informational half: the NOTE lines
    ([propeller stat diff] routes these to stderr). *)
val render_notes : outcome -> string
