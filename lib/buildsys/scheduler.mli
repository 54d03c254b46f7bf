(** The remote-executor scheduler: places independent actions (backend
    codegen runs) on a fixed worker pool and accounts the makespan.

    Placement is LPT (longest processing time first): actions sorted by
    descending cost, each assigned to the least-loaded worker — the
    classic 4/3-approximation, and a fair stand-in for a work-stealing
    remote execution service. The resulting per-worker timelines are
    what the build-phase wall times of Table 5 / Fig 9 are made of.

    Actions whose peak memory exceeds the executor's per-action limit
    are flagged in [over_limit] (they would be evicted or re-routed to
    big-RAM workers in the real system — the fate BOLT's monolithic
    memory profile suffers and Propeller's per-object actions avoid). *)

type action = {
  label : string;
  cpu_seconds : float;  (** Modelled backend cost of the action. *)
  peak_mem_bytes : int;  (** Modelled peak RSS of the action. *)
}

(** One scheduled run of an action on a worker. *)
type placement = { action : action; worker : int; start : float; finish : float }

type result = {
  num_actions : int;
  wall_seconds : float;  (** Makespan across the pool. *)
  cpu_seconds : float;
      (** Total compute: sum of effective on-worker durations (equals
          the sum of action costs in a fault-free schedule). *)
  max_action_mem : int;  (** Peak per-action memory over the set. *)
  over_limit : string list;  (** Labels exceeding [mem_limit], input order. *)
  workers : int;
  placements : placement list;  (** In placement (LPT) order. *)
  stragglers : int;  (** Actions slowed by the fault plan. *)
  speculated : int;
      (** Stragglers rescued by a speculative backup copy (the backup
          finished before the slowed original would have). *)
}

(** [schedule ?mem_limit ?faults ~workers actions] places every action;
    raises [Invalid_argument] when [workers < 1].

    With a fault plan, each action's on-worker duration is its modelled
    effective duration: failed attempts replay the action and wait out
    the exponential backoff ({!Faultsim.Plan.retry_cost}); stragglers
    run [straggle_factor] slower, capped by speculative re-issue — once
    a full fault-free duration elapses without completion a backup copy
    is launched, so the action finishes at [min (slowed, 2 * base)].
    Placement order itself never changes (decisions are keyed on action
    labels, not on schedule state), so the same plan replays the same
    schedule at any worker count. *)
val schedule : ?mem_limit:int -> ?faults:Faultsim.Plan.t -> workers:int -> action list -> result

(** [plan_memo_hits ()] counts LPT plans served from the memoized sort
    (the sorted task list is cached per action list, so repeated builds
    of the same program don't replan from scratch). *)
val plan_memo_hits : unit -> int
