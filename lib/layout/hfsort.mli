(** C3 function ordering (call-chain clustering), as used by BOLT's
    [-reorder-functions=hfsort] and by Propeller's global function layout.

    Functions are greedily appended to the cluster of their hottest
    caller, subject to a cluster-size cap that preserves locality; final
    clusters are emitted in decreasing hotness density. Nodes are
    integers [0 .. n-1].

    Takes the same {!Problem.t} as the block-level policies: [sizes] are
    code bytes, [weights] are profile samples per function, and the
    edges are [(caller, callee, weight)] call arcs. {!Problem.make}
    sums duplicate arcs, so a callee's hottest caller is the one with
    the largest total weight over all its arcs to that callee (the
    first in (caller, callee) order on a tie). The problem's [entry] is
    ignored — function ordering has no pinned entry. *)

(** [order problem] returns a permutation of [0 .. n-1]. Clusters stop
    growing at 1 MiB of code. *)
val order : Problem.t -> int list
