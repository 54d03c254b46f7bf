(** C3 function ordering (call-chain clustering), as used by BOLT's
    [-reorder-functions=hfsort] and by Propeller's global function layout.

    Functions are greedily appended to the cluster of their hottest
    caller, subject to a cluster-size cap that preserves locality; final
    clusters are emitted in decreasing hotness density. Nodes are
    integers [0 .. n-1].

    Takes the same {!Problem.t} as the block-level policies: [sizes] are
    code bytes, [weights] are profile samples per function, [edges] are
    [(caller, callee, weight)] call arcs. The problem's [entry] is
    ignored — function ordering has no pinned entry. *)

(** [order ?max_cluster_size problem] returns a permutation of
    [0 .. n-1]. [max_cluster_size] is the byte cap beyond which clusters
    stop growing (default 1 MiB). *)
val order : ?max_cluster_size:int -> Problem.t -> int list
