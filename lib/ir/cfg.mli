(** Control-flow-graph analyses over a single {!Func.t}. *)

(** [estimate_frequencies ~use_pgo f] computes per-block execution
    frequencies relative to one function invocation by propagating edge
    probabilities ([use_pgo] selects the PGO-estimated [pgo_prob]/[pgo_probs]
    over the true probabilities). Cyclic flow is resolved by damped fixpoint
    iteration, capped to keep the analysis linear in practice. The sweeps
    run in the reverse postorder of a depth-first walk from the entry
    (successors in {!Term.successors} order), then over the unreachable
    blocks in id order; the walk uses an explicit stack and builds no
    list. *)
val estimate_frequencies : use_pgo:bool -> Func.t -> float array

(** [edge_frequencies ~freqs ~use_pgo f] derives the transfer
    frequencies of [f]'s CFG edges from the block frequencies [freqs],
    which {!estimate_frequencies} computes, as flat parallel arrays
    [(src, dst, w)]: edge [k] runs from block [src.(k)] to [dst.(k)]
    with frequency [w.(k)], the source's frequency times the edge's
    probability. Blocks come in id order, and each block's edges in
    ascending destination; a repeated successor (both arms of a branch,
    or a switch table entry) gives one edge whose weight is the sum of
    its weights in {!Term.successors} order. Self-edges and zero weights
    are kept. So with probabilities in [0, 1] the pairs are strictly
    ascending, and [Layout.Problem.make] normalizes them to what it
    makes of the per-successor edges. *)
val edge_frequencies :
  freqs:float array -> use_pgo:bool -> Func.t -> int array * int array * float array
