(** Seeded, replayable fault plans for the distributed build/relink
    simulation (paper §3.1, §3.4).

    A plan is a small record of fault {e rates} plus a seed; every
    concrete fault decision — does backend action [k] fail on attempt
    [a], does cache entry [k] rot, is profile shard [s] dropped — is a
    {e pure function} of (plan, identity). Nothing is pre-drawn and no
    generator state is consumed, so decisions are independent of
    evaluation order: the same plan replays identically whether the
    build fans out over 1 domain or 16, which is what makes the
    fault-injection invariant testable (same seed + plan ⇒ byte-identical
    image).

    The library is dependency-free on purpose: it sits {e below}
    [Support] in the stack so that [Support.Ctx] can carry a plan
    through every pipeline entry point. *)

type t = {
  seed : int;  (** Stream selector; two seeds give independent plans. *)
  action_fail : float;
      (** Per-attempt probability that a backend (codegen) action
          fails transiently; retried with exponential backoff. *)
  persist : float;
      (** Probability that a compilation unit is {e persistently}
          failing: every attempt fails, and the build degrades to the
          unit's last known-good object when one exists. *)
  straggle : float;
      (** Probability that a scheduled action straggles (runs at
          [straggle_factor] its nominal cost). *)
  straggle_factor : float;  (** Slowdown multiplier of a straggler. *)
  corrupt : float;
      (** Probability that a freshly stored cache entry rots in place
          (detected by digest-verified reads, then evicted). *)
  shard_drop : float;
      (** Probability that one of the [shards] profile shards never
          arrives; hot functions whose samples live in dropped shards
          keep their baseline layout. *)
  shards : int;  (** Number of profile shards the collection models. *)
  max_attempts : int;
      (** Attempt budget per action (1 = no retries). A transiently
          failing action is forced to succeed on the last attempt so
          the link always completes. *)
  backoff_base : float;  (** Seconds before the first retry. *)
  backoff_mult : float;  (** Exponential backoff multiplier. *)
}

(** [is_active t] is true when any fault rate is positive. *)
val is_active : t -> bool

(** [of_spec s] parses a [--faults] plan spec: comma-separated [k=v]
    pairs over the keys [seed], [action], [persist], [straggle],
    [straggle-factor], [corrupt], [shard-drop], [shards], [attempts],
    [backoff], [backoff-mult]; unset keys keep the no-fault defaults
    (every rate 0, seed 0, 16 shards, 4 attempts, 0.5 s base backoff
    doubling per retry). Numbers
    must be finite ([nan] and [inf] are rejected) and rates must lie in
    [0, 1]. E.g. ["seed=7,action=0.2,corrupt=0.05"]. Total: any string
    gives [Ok] or [Error], never an exception. *)
val of_spec : string -> (t, string) result

(** [to_spec t] renders the canonical spec string: [of_spec (to_spec t)]
    is [Ok t] for every plan {!of_spec} accepts. *)
val to_spec : t -> string

(* Decisions — all pure and stateless. *)

(** [attempts_for t ~key] is the attempt on which action [key] first
    succeeds, in [1 .. max_attempts]; an action whose whole budget
    would fail is forced to succeed on the last attempt. *)
val attempts_for : t -> key:string -> int

(** [persistent t ~unit_name] — is this compilation unit persistently
    failing (every rebuild of it, under any action key)? *)
val persistent : t -> unit_name:string -> bool

(** [straggles t ~key] — does the scheduled action [key] straggle? *)
val straggles : t -> key:string -> bool

(** [corrupts t ~key] — does the cache entry stored under [key] rot? *)
val corrupts : t -> key:string -> bool

(** [shard_of t ~key] is the profile shard ([0 .. shards-1]) the
    samples of function [key] were collected into. *)
val shard_of : t -> key:string -> int

(** [shard_dropped t ~shard] — did shard [shard] never arrive? *)
val shard_dropped : t -> shard:int -> bool

(** [dropped_shards t] lists the dropped shard ids, ascending. *)
val dropped_shards : t -> int list

(** [backoff_seconds t ~retry] is the delay before retry [retry]
    (1-based): [backoff_base *. backoff_mult ^ (retry - 1)]. *)
val backoff_seconds : t -> retry:int -> float

(** [retry_cost t ~attempts ~cpu_seconds] is the extra modelled time a
    [cpu_seconds]-long action spends on [attempts - 1] failed runs and
    the backoff gaps between them. 0 when [attempts = 1]. *)
val retry_cost : t -> attempts:int -> cpu_seconds:float -> float
