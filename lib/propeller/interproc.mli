(** Inter-procedural code layout (paper §4.7).

    Runs Ext-TSP over the merged whole-program CFG — intra-function
    edges plus block-granular call arcs — so a multi-modal function can
    split into several clusters, each placed near its callers. Produces
    cluster directives and the global symbol ordering. *)

type result = {
  plans : Codegen.Directive.t;
  ordering : string list;
  score : float;  (** Global Ext-TSP objective achieved. *)
  global_nodes : int;  (** Size of the merged graph (cost driver). *)
}

(** [layout ~policy ~params ~dcfg ~entry_func] computes the global
    layout over the sampled blocks and every hot function's entry, using
    [policy] to order the merged graph. [result.score] is always the
    Ext-TSP objective under [params.exttsp], whichever policy ran. *)
val layout :
  policy:Layout.Policy.t ->
  params:Layout.Policy.params ->
  dcfg:Dcfg.t ->
  entry_func:string ->
  result
