(** Phase 3 — Whole Program Analysis (paper §3.3).

    Consumes (a) the hardware LBR profile and (b) the metadata binary's
    symbol table and [.llvm_bb_addr_map] — and nothing else. LBR
    addresses are mapped to machine basic blocks through the address
    map; a dynamic control flow graph (DCFG) is built incrementally
    from the samples; Ext-TSP computes per-function (or whole-program)
    block orders; the results are emitted as compiler directives
    ([cc_prof]) and a linker symbol ordering ([ld_prof]).

    No disassembly happens anywhere: block boundaries, sizes and ids all
    come from the metadata section. *)

type mode =
  | Intra  (** Per-function layout; clusters = hot + cold (§3.5). *)
  | Interproc
      (** Whole-program Ext-TSP over the merged CFG with call edges;
          functions may split into multiple placed clusters (§4.7). *)

type config = {
  mode : mode;
  layout_policy : string;
      (** Registered {!Layout.Policy} name ordering blocks (default
          ["exttsp"]); {!analyze} raises [Invalid_argument] on unknown
          names. *)
  policy_params : Layout.Policy.params;
  split_threshold : int;  (** Block counts <= threshold are cold. *)
  split_functions : bool;  (** Emit [.cold] clusters at all (§4.6). *)
}

val default_config : config

(** The profile regime driving the analysis. [Lbr] is the paper's path:
    hardware branch records consumed by {!Dcfg} directly. [Sampled] is
    the portable fallback: flat stack samples, synthesized into LBR
    shape by {!Autofdo} against the binary under analysis — [program]
    supplies the static CFG topology and [period] the sampler's mean
    period for count scaling. *)
type profile_input =
  | Lbr of Perfmon.Lbr.profile
  | Sampled of {
      samples : Perfmon.Sampler.profile;
      program : Ir.Program.t;
      period : int;
    }

(** [resolve_profile ~binary input] is the LBR-shaped profile WPA will
    actually consume: the identity for [Lbr], {!Autofdo.synthesize} for
    [Sampled]. Exposed so callers can resolve once and reuse the result
    (e.g. for diagnostics) without synthesizing twice. *)
val resolve_profile : binary:Linker.Binary.t -> profile_input -> Perfmon.Lbr.profile

type result = {
  plans : Codegen.Directive.t;  (** cc_prof: per-function clusters. *)
  ordering : string list;  (** ld_prof: global section symbol order. *)
  hot_funcs : int;
  dcfg_blocks : int;  (** Blocks with observed samples. *)
  dcfg_edges : int;
  layout_score : float;  (** Total Ext-TSP objective achieved. *)
  peak_mem_bytes : int;  (** Modelled Phase-3 peak RSS (Fig 4). *)
  cpu_seconds : float;  (** Modelled conversion+analysis time. *)
  layout_cache_hits : int;
      (** Functions whose (plan, score) came from the relink cache in
          this call; 0 when no cache was given. *)
  layout_cache_misses : int;  (** Functions laid out from scratch. *)
  layout_cache_evictions : int;  (** Entries dropped by capacity. *)
  shards_dropped : int;
      (** Profile shards the fault plan dropped (0 without a plan). *)
  dropped_hot_funcs : int;
      (** Hot functions that lost their samples to a dropped shard and
          kept the baseline layout — each is a degradation the caller
          should count against [fault.degraded]. *)
}

(** One function's hot-block layout: the block order, its Ext-TSP
    score, and the policy that produced it. *)
type block_layout = { blocks : int list; score : float; policy : string }

(** [block_layout ?policy ?params ?split_threshold shapes dfunc]
    computes the hot-block order of one function under the named layout
    policy (default ["exttsp"]) and its Ext-TSP score, taking block
    sizes from [shapes] (see {!Dcfg.shapes}); shared with the BOLT
    baseline (same objective, different delivery). *)
val block_layout :
  ?policy:string ->
  ?params:Layout.Policy.params ->
  ?split_threshold:int ->
  (string, Dcfg.shape) Hashtbl.t ->
  Dcfg.dfunc ->
  block_layout

(** [layout_params_str config] renders the configuration half of the
    layout key, shared by every function of one analysis. *)
val layout_params_str : config -> string

(** [layout_key ~params_str ~shapes dfunc] is the content-addressed
    key of one function's layout problem: a digest over the function's
    sampled counts and edges, its block shapes from the address map
    ([shapes], which need hold only the keyed functions), and the
    layout configuration ([params_str]). Two profiles that agree on a
    function produce the same key, so warm relinks reuse its cached
    (plan, score). *)
val layout_key :
  params_str:string ->
  shapes:(string, Dcfg.shape) Hashtbl.t ->
  Dcfg.dfunc ->
  Support.Digesting.t

(** [analyze ?config ?ctx ?layout_cache ~profile ~binary ()] runs the
    whole-program analysis against a metadata binary (one linked with
    [keep_bb_addr_map = true]; raises [Invalid_argument] otherwise).

    Per-function partitioning and Ext-TSP fan out on the context's
    domain pool (default {!Support.Pool.global}); results commit in
    deterministic order, so plans, ordering and [layout_score] are
    identical for any pool width. With [layout_cache], functions whose
    {!layout_key} is cached skip layout entirely — the
    incremental-relink fast path — and the result's [layout_cache_*]
    fields report this call's deltas.

    When [ctx] carries an active fault plan with a positive shard-drop
    rate, the sharded profile store loses shards: hot functions hashed
    to a dropped shard are analyzed as if never sampled (baseline
    layout, no ordering entry) and counted in [dropped_hot_funcs]; the
    analysis itself always completes. Shard drops model the Intra
    per-function profile store and do not apply to [Interproc] mode. *)
val analyze :
  ?config:config ->
  ?ctx:Support.Ctx.t ->
  ?layout_cache:(Codegen.Directive.func_plan * float) Buildsys.Cache.t ->
  profile:profile_input ->
  binary:Linker.Binary.t ->
  unit ->
  result
