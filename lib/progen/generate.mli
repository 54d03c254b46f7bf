(** Synthetic program generation.

    Produces a whole program whose shape matches a {!Spec.t}: heavy-tailed
    function sizes, skewed branch probabilities (hot spines with cold
    error paths), loops, jump tables, exception landing pads, a DAG call
    graph rooted at [main] whose hot region avoids cold units, and noisy
    PGO estimates modelling instrumented-profile staleness.

    Generation is deterministic in [spec.seed]. *)

val program : Spec.t -> Ir.Program.t
