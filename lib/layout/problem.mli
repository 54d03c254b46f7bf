(** One code-layout problem, shared by every layout policy.

    A problem is the (sizes, weights, edges, entry) quadruple that the
    old unit-terminated [Exttsp.order]/[Hfsort.order] signatures took as
    labelled arguments, packaged as a first-class value so policies can
    be passed around, registered and batch-solved uniformly.

    Nodes are integers [0 .. n-1]; at block granularity they are basic
    blocks and the edges are branch/fall-through frequencies, at
    function granularity they are functions and the edges are call
    arcs.

    The edges are held in one form only, normalized once by {!make}:
    duplicate pairs summed in input order (so float sums are
    bit-stable), self-edges and non-positive weights dropped, sorted by
    (src, dst), as flat parallel arrays. Every policy and scorer reads
    these arrays; producers hand {!make} their edges raw, as flat
    arrays too. *)

type t = private {
  sizes : int array;  (** [sizes.(i)]: code bytes of node [i]. *)
  weights : float array;  (** [weights.(i)]: execution count of node [i]. *)
  esrc : int array;  (** Edge [k] runs from node [esrc.(k)] ... *)
  edst : int array;  (** ... to node [edst.(k)] ... *)
  ew : float array;
      (** ... with weight [ew.(k)] > 0. Edges are distinct (src, dst)
          pairs with src <> dst, in (src, dst) order; that order is the
          float accumulation order of scoring, so it is part of the
          determinism contract. *)
  entry : int;  (** Node pinned to the front of every layout. *)
}

(** [make ~sizes ~weights ~esrc ~edst ~ew ~entry] packages one problem
    and normalizes its raw edges, given as flat parallel arrays: edge
    [k] runs from [esrc.(k)] to [edst.(k)] with transfer frequency
    [ew.(k)]. Duplicate (src, dst) pairs are summed in input order,
    self-edges and weights <= 0 are dropped, and the rest are sorted by
    (src, dst), by a stable sort of the kept edges by packed (src, dst)
    key, so it allocates no table. When the edges already are that
    form (strictly ascending pairs, no self-edge, every weight > 0),
    [make] keeps the three arrays as given, after the checks below.
    [sizes], [weights] and the edge arrays are owned by the problem and
    must not be mutated afterwards. Raises [Invalid_argument] when
    [sizes] and [weights] differ in length, when the three edge arrays
    differ in length, when [entry] lies outside [0, n) for n > 0
    nodes, when an edge endpoint lies outside [0, n), or when an edge
    weight is infinite or NaN (Ext-TSP's pruning needs finite gains).
    Self-edges and weights <= 0 in range are accepted and dropped. *)
val make :
  sizes:int array ->
  weights:float array ->
  esrc:int array ->
  edst:int array ->
  ew:float array ->
  entry:int ->
  t

(** Number of nodes. *)
val size : t -> int
