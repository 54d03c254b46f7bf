(** One code-layout problem, shared by every layout policy.

    A problem is the (sizes, weights, edges, entry) quadruple that the
    old unit-terminated [Exttsp.order]/[Hfsort.order] signatures took as
    labelled arguments, packaged as a first-class value so policies can
    be passed around, registered and batch-solved uniformly.

    Nodes are integers [0 .. n-1]; at block granularity they are basic
    blocks and [edges] are branch/fall-through frequencies, at function
    granularity they are functions and [edges] are call arcs.

    The record carries a lazily computed {e flat edge} cache: the edge
    list deduplicated (duplicate pairs accumulated in input order, so
    float sums are bit-stable), self-edges and non-positive weights
    dropped, sorted by (src, dst) — exactly the preprocessing every
    scoring call used to redo from scratch. Search loops score the same
    problem hundreds of times; with the cache the list is parsed once. *)

(** Deduplicated edges as flat parallel arrays in (src, dst) order.
    Element order is the float accumulation order of scoring, so it is
    part of the determinism contract. *)
type flat = { esrc : int array; edst : int array; ew : float array }

type t = {
  sizes : int array;  (** [sizes.(i)]: code bytes of node [i]. *)
  weights : float array;  (** [weights.(i)]: execution count of node [i]. *)
  edges : (int * int * float) list;
      (** [(src, dst, weight)] transfer frequencies; duplicates allowed. *)
  entry : int;  (** Node pinned to the front of every layout. *)
  mutable flat_cache : flat option;  (** Use {!flat}, not this field. *)
}

(** [make ~sizes ~weights ~edges ~entry] packages one problem. The
    caches start empty; arrays are owned by the problem and must not be
    mutated afterwards. Raises [Invalid_argument] when [sizes] and
    [weights] differ in length, when [entry] lies outside [0, n) for
    n > 0 nodes, when an edge endpoint lies outside [0, n), or when an
    edge weight is infinite or NaN (Ext-TSP's pruning needs finite
    gains). Self-edges and weights <= 0 are accepted, and {!flat} drops
    them. *)
val make :
  sizes:int array -> weights:float array -> edges:(int * int * float) list -> entry:int -> t

(** Number of nodes. *)
val size : t -> int

(** [flat t] is the deduplicated flat-edge form, computed on first use
    and cached. Duplicate (src, dst) pairs are accumulated in input
    order; self-edges and weights <= 0 are dropped; the result is
    sorted by (src, dst). Built by a stable sort of the kept edges by
    packed (src, dst) key, so it allocates no table. *)
val flat : t -> flat
