(** Pluggable layout policies.

    A policy is a named function from a {!Problem.t} to a layout — a
    permutation of [0 .. n-1] with the problem's entry first. All
    policies here are deterministic: any randomness is drawn
    from {!Support.Rng} streams derived from [params.seed], so the same
    (problem, params) pair always yields the same layout on any number
    of domains.

    The policies:
    - ["exttsp"] — Ext-TSP chain merging with priority-queue retrieval
      (paper §3.3/§4.7); the default everywhere.
    - ["exttsp-linear"] — Ext-TSP with linear candidate rescan; same
      layouts, different running time (the §4.7 ablation).
    - ["local-search"] — seeded local search over a swap / segment-move
      / segment-reverse neighborhood, starting from the Ext-TSP layout
      ([params.steps] proposals, greedy acceptance). Never scores below
      Ext-TSP.

    The search harness ({!Search}) mutates [params] per candidate, so
    every tunable shared by policies lives in one flat record. *)

type params = {
  exttsp : Exttsp.params;  (** Ext-TSP knobs; also the scoring objective. *)
  seed : int;  (** Root seed for ["local-search"]. *)
  steps : int;  (** Proposal budget for ["local-search"]. *)
}

val default_params : params
(** [{ exttsp = Exttsp.default_params; seed = 1; steps = 256 }] *)

type t = {
  name : string;
  order : ?params:params -> Problem.t -> int list;
      (** Returns a permutation of [0 .. size-1], entry first. *)
}

(** [names] lists the policy names, default first. *)
val names : string list

(** [find name] looks up a policy by name. *)
val find : string -> t option

(** [order_batch ?params ~pool policy problems] solves every problem
    across the domain pool and returns [(order, exttsp_score)] per
    problem, in input order. The score is always the Ext-TSP objective
    under [params.exttsp] regardless of policy, so layouts from
    different policies are comparable. Results commit in index order —
    identical output for any pool width (the §3.4 sharding contract). *)
val order_batch :
  ?params:params -> pool:Support.Pool.t -> t -> Problem.t array -> (int list * float) array
