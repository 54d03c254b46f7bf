(** Deterministic, evaluation-budgeted tournament search over layout
    policies (the AI-PROPELLER setup from PAPERS.md, fitted to this
    repo's simulator).

    The harness owns candidate generation — which policies run with
    which {!Policy.params} — and is generic over how a candidate is
    scored: callers supply [evaluate], which typically relinks the
    program under the candidate policy and executes the image through
    [exec]+[uarch], returning simulated cycles as fitness (see
    [Diagnostics.Lsearch] for that evaluator). Keeping the evaluator
    abstract keeps this module free of engine dependencies and lets
    tests drive the tournament with synthetic fitness functions.

    Determinism: candidate mutation draws from a {!Support.Rng} stream
    derived from [seed]; rounds, candidate order and tie-breaking are
    all fixed, so the same (budget, seed, evaluator) triple reproduces
    the same winner bit-for-bit. No wall-clock anywhere.

    Round 1 evaluates every registered policy once under default
    parameters — so the report always contains an Ext-TSP baseline to
    beat. Subsequent rounds mutate the best candidate so far (parameter
    scaling, window resizing, reseeding, occasional policy switches)
    until the evaluation budget is spent. *)

type candidate = { policy : string;  (** registered policy name *) params : Policy.params }

type outcome = {
  fitness : float;  (** simulated cycles — lower is better *)
  proxy : float;  (** Ext-TSP score of the layout — higher is better *)
}

type entry = { id : int;  (** evaluation index, 0-based *) round : int; candidate : candidate; outcome : outcome }

type report = {
  budget : int;
  seed : int;
  rounds : int;
  entries : entry list;  (** in evaluation order; length <= budget *)
  winner : entry;  (** lowest fitness; ties broken by earliest id *)
  baseline : entry option;  (** the round-1 ["exttsp"] entry *)
  comparable_pairs : int;
      (** entry pairs whose fitness AND proxy both differ — the pairs on
          which proxy and cycles can agree or disagree *)
  discordant_pairs : int;
      (** comparable pairs where the better Ext-TSP score has the worse
          cycle count — the score-vs-cycles gap, counted *)
  proxy_agreement : float;
      (** concordant / comparable, in [0, 1]; 1.0 when no pair is
          comparable *)
}

(** [run ?recorder ?seed ~budget ~evaluate ()] runs the tournament: at
    most [budget] evaluations (at least 1), grouped in rounds of 4 after
    the all-policies opening round. When [recorder] is given, each round
    is wrapped in a ["layout_search.round"] trace span carrying the
    round's best fitness. [evaluate] must be deterministic for
    reproducibility. *)
val run :
  ?recorder:Obs.Recorder.t ->
  ?seed:int ->
  budget:int ->
  evaluate:(candidate -> outcome) ->
  unit ->
  report
