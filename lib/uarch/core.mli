(** The front-end micro-architecture simulator.

    Consumes the execution engine's event stream and drives L1i/L2/L3
    caches, the iTLB, the BTB and the DSB, accumulating the performance
    counters of the paper's Table 4 and a front-end cycle model. The
    paper's Skylake events map as follows:

    - I1 [frontend_retired.l1i_miss]: demand L1i misses;
    - I2 [l2_rqsts.code_rd_miss]: L2 code-read misses;
    - I3 (L2-and-beyond stalls): modelled as L3 code misses;
    - T1 [icache_64b.iftag_miss]: all iTLB lookups that missed;
    - T2 [frontend_retired.itlb_miss]: iTLB misses that also missed L1i
      (the stall-causing subset);
    - B1 [baclears.any]: front-end resteers on BTB misses;
    - B2 [br_inst_retired.near_taken]: taken branches. *)

type config = {
  l1i : Cache.params;
  l2 : Cache.params;
  l3 : Cache.params;
  itlb : Tlb.params;
  btb : Btb.params;
  dsb : Dsb.params;
  hugepages : bool;
  page_scale_bits : int;
      (** Shrink TLB pages by 2^bits for scale-reduced programs (see
          {!Tlb.create}). *)
}

val default_config : config

type counters = {
  mutable instructions : int;
  mutable fetch_events : int;
  mutable i1_l1i_miss : int;
  mutable i2_l2_code_miss : int;
  mutable i3_l3_code_miss : int;
  mutable t1_itlb_miss : int;
  mutable t2_itlb_stall_miss : int;
  mutable b1_baclears : int;
  mutable b2_taken_branches : int;
  mutable dsb_misses : int;  (** 32-byte window misses: two per missed line. *)
  mutable cond_branches : int;
  mutable dmisses : int;  (** Uncovered delinquent-load data misses. *)
  mutable cycles : float;  (** Modelled front-end-bound cycles. *)
}

type t

(** [create config] builds a cold core. It allocates one word per set
    of each structure (the sets' most recent lines) plus a few records:
    about 10 500 words for {!default_config}. A structure builds the
    rest of its ways only when some set first needs a second line (see
    {!Cache}), so an L2 or L3 whose sets each see one line never does.
    Raises [Invalid_argument] on a geometry {!Cache.create},
    {!Tlb.create}, {!Btb.create} or {!Dsb.create} rejects, and first of
    all when the two 32-byte DSB windows of a 64-byte line would share
    a set (DSB sets times window bytes below 64): the DSB keeps one
    entry per line, which stands for both windows only when they sit in
    two sets. *)
val create : config -> t

(** [consume t tape] feeds one tape's fetch, branch and dmiss events
    to the core, in emission order: the drain to pass to
    {!Exec.Interp.run}. It allocates nothing per event. *)
val consume : t -> Exec.Event.tape -> unit

val counters : t -> counters

(** [counters_assoc c] lists the integer event counters in a fixed,
    documented order (exporters and the diagnostics layer iterate this
    instead of hand-listing fields). [cycles] is not included: it is a
    float gauge, not an event count. *)
val counters_assoc : counters -> (string * int) list

(** [publish ?ctx ~name t] records every counter into the context
    recorder's metrics registry as ["uarch.<name>.<counter>"] (default
    recorder: {!Obs.Recorder.global}). [name] labels the run, e.g.
    ["base"] or ["propeller"]. *)
val publish : ?ctx:Support.Ctx.t -> name:string -> t -> unit
