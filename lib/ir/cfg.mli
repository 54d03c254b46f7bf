(** Control-flow-graph analyses over a single {!Func.t}. *)

(** [estimate_frequencies ~use_pgo f] computes per-block execution
    frequencies relative to one function invocation by propagating edge
    probabilities ([use_pgo] selects the PGO-estimated [pgo_prob]/[pgo_probs]
    over the true probabilities). Cyclic flow is resolved by damped fixpoint
    iteration, capped to keep the analysis linear in practice. *)
val estimate_frequencies : use_pgo:bool -> Func.t -> float array

(** [edge_frequencies ~freqs ~use_pgo f] derives (src, dst, frequency)
    triples from the block frequencies [freqs], which
    {!estimate_frequencies} computes. *)
val edge_frequencies : freqs:float array -> use_pgo:bool -> Func.t -> (int * int * float) list
