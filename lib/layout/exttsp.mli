(** Ext-TSP basic block reordering (Newell & Pupyrev, "Improved Basic
    Block Reordering", 2018; paper §3.3, §4.7).

    The algorithm greedily merges chains of nodes to maximise the Ext-TSP
    objective, which rewards fall-through edges fully and short forward /
    backward jumps partially. Propeller's contribution for warehouse
    scale is the *logarithmic-time retrieval of the most profitable
    merge* (paper §4.7): candidate merges live in a priority queue keyed
    by gain instead of being rescanned linearly. Both strategies are
    implemented; the bench compares them ([ablation_inter]).

    Picking a merge is cheap for a second reason: every candidate
    arrangement of chains [a] and [b] is "[b] inserted at cut [c] of
    [a]" ([c = |a|] is a++b, [c = 0] is b++a, the rest split [a]), and
    is scored only from state that no candidate changes. Each node
    records its chain, byte offset and rank there; each chain caches its
    internal edges' distances, gains and end ranks, and each live chain
    keeps its live neighbours, in ascending id, with the bundle of cross
    edges it shares with each. A cut then costs one pass over the pair's
    cross edges and each chain's internal edges, filling nothing and
    allocating nothing, and a cut that provably cannot beat the best one
    so far is skipped: floating-point addition never decreases when an
    operand grows, so a cut whose running sum after [a]'s edges is no
    larger than the best's, or whose error-bounded estimate of that sum
    is no larger, cannot win.

    Float contract: a cut's score adds edge gains in the order
    reverse(cross), reverse(a's internal edges), b's internal edges —
    the order of the merged chain's internal edges. Layouts are pinned
    to that order, since a different summation can flip a comparison.

    Tie contract: equal gains pop in push order. The first pushes
    follow the iteration order of a table of cross bundles keyed by
    (min, max) node pairs, hashed as tuples; after a merge the new
    pairs are pushed in ascending neighbour id. Each pair is pushed at
    most once, since a merged chain takes a fresh id.

    Takes a {!Problem.t}; the produced order is a permutation of
    [0 .. n-1] with the problem's entry node first. *)

type params = {
  forward_window : int;  (** Max rewarded forward-jump distance (bytes). *)
  backward_window : int;  (** Max rewarded backward-jump distance. *)
  fallthrough_weight : float;
  forward_weight : float;
  backward_weight : float;
  max_split_chain : int;
      (** Chains longer than this are only merged by concatenation (the
          split-point search costs cuts × edges of the pair). *)
  use_pqueue : bool;
      (** Retrieve the best merge from a priority queue (O(log n)) rather
          than a linear rescan of all candidates. The two break ties
          between equal gains in different orders (push order vs
          candidate-table order), so their layouts can differ when
          gains tie. *)
}

val default_params : params

(** [order ?params problem] computes a layout: a permutation of
    [0 .. n-1] with [problem.entry] first. *)
val order : ?params:params -> Problem.t -> int list

(** [score ?params ~order problem] evaluates the Ext-TSP objective of a
    given layout (higher is better), over the problem's cached flat
    edges. Raises [Invalid_argument] if [order] holds a node outside
    [0, n). *)
val score : ?params:params -> order:int list -> Problem.t -> float

(** [score_norm ?params ~order problem] is {!score} divided by the total
    (non-self) edge weight — a layout-quality figure in
    [0, fallthrough_weight] that is comparable across programs of
    different sizes and sample counts. 1.0 means every observed transfer
    is a rewarded fall-through; 0 when no edges carry weight. *)
val score_norm : ?params:params -> order:int list -> Problem.t -> float

(** Reusable scoring scratch for layouts held as arrays: position maps
    sized for [n] nodes, so search loops that score hundreds of
    candidate arrangements of one problem allocate nothing per
    evaluation. *)
type scratch

(** [scratch n] makes scoring scratch for problems of up to [n] nodes. *)
val scratch : int -> scratch

(** [score_into ?params scratch problem arr] scores the arrangement
    [arr] (all of it) against the problem's flat edges, reusing
    [scratch]. Equivalent to {!score} with [order = Array.to_list arr]
    but allocation-free. Raises [Invalid_argument] if [arr] holds a node
    outside [0, n) or [scratch] was made for fewer nodes. *)
val score_into : ?params:params -> scratch -> Problem.t -> int array -> float

(** Number of chain merges performed by the last {!order} call on this
    domain; exposed for the benches' work accounting. The counter is
    domain-local, so concurrent [Policy.order_batch] tasks don't race. *)
val last_merge_count : unit -> int
