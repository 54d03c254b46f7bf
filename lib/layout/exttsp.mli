(** Ext-TSP basic block reordering (Newell & Pupyrev, "Improved Basic
    Block Reordering", 2018; paper §3.3, §4.7).

    The algorithm greedily merges chains of nodes to maximise the Ext-TSP
    objective, which rewards fall-through edges fully and short forward /
    backward jumps partially. Propeller's contribution for warehouse
    scale is the *logarithmic-time retrieval of the most profitable
    merge* (paper §4.7): candidate merges live in a priority queue keyed
    by gain instead of being rescanned linearly. Both strategies are
    implemented; the bench compares them ([ablation_inter]).

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
          split-point search is quadratic). *)
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
    edges. *)
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
    but allocation-free. *)
val score_into : ?params:params -> scratch -> Problem.t -> int array -> float

(** Number of chain merges performed by the last {!order} call on this
    domain; exposed for the benches' work accounting. The counter is
    domain-local, so concurrent {!order_batch} tasks don't race. *)
val last_merge_count : unit -> int

(** [order_batch ?params ~pool problems] solves every problem across
    the domain pool and returns [(order, score)] per problem, in input
    order. Each problem is computed exactly as {!order} + {!score}
    would sequentially, and results commit in index order, so the
    output is identical for any pool width (the §3.4 sharding
    contract). *)
val order_batch :
  ?params:params -> pool:Support.Pool.t -> Problem.t array -> (int list * float) array
