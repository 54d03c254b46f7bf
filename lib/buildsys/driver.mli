(** The distributed-build driver (paper §3.1, §3.4).

    A build turns a program into one object per compilation unit plus a
    linked binary. Each unit is one *action*, keyed by a content digest
    of (tool, unit IR, relevant codegen flags); the object comes from
    the content-addressed {!Cache} on a key hit and from a scheduled
    backend run on a miss. Phase 4 of the pipeline exploits this: only
    units whose layout directives changed get new action keys, so the
    relink re-generates ~hot objects and reuses everything else.

    Every build is instrumented: spans for the codegen fan-out and the
    link (on the env's simulated-clock recorder), cache hit/miss/stored
    counters, and per-action cost histograms.

    {2 Fault tolerance}

    When the env's {!Support.Ctx.t} carries an active
    {!Faultsim.Plan.t}, builds run the warehouse failure drill:

    - cache reads are digest verified ({!Cache.find_verified}); a
      rotted entry is evicted and its unit recompiled from source;
    - transiently failing actions are replayed with exponential backoff
      until an attempt succeeds (the plan forces success at the last
      attempt, so the link always completes);
    - persistently failing units degrade to the last object they
      successfully built ([last_good], the cached base object) — the
      only injected fault, together with Wpa's dropped profile shards,
      that changes output bytes, and every occurrence increments
      [degraded];
    - stragglers and speculative re-issue are modelled by the
      {!Scheduler} (wall time only).

    Invariant: the same plan replays byte-identically at any [--jobs]
    width, and whenever [faults.degraded = 0] the image digest equals
    the fault-free digest. *)

type env = {
  obj_cache : Objfile.File.t Cache.t;
  layout_cache : (Codegen.Directive.func_plan * float) Cache.t;
      (** Content-addressed per-function layout results (plan, score),
          keyed by (function shape, profile counts, layout config); the
          incremental-relink cache Wpa consults on warm relinks. *)
  workers : int;  (** Remote-executor pool size. *)
  mem_limit : int option;  (** Per-action RSS flag threshold. *)
  ctx : Support.Ctx.t;  (** Recorder, pool and fault plan of this env. *)
  last_good : (string, Objfile.File.t) Hashtbl.t;
      (** Last successfully built object per unit name — the fallback
          store persistent action failures degrade to. *)
  corrupted : (Support.Digesting.t, unit) Hashtbl.t;
      (** Keys whose cache entry was already rot-flipped once; the
          recompiled store after detection stays clean. *)
}

(** [recorder env] is the env's telemetry scope ([env.ctx.recorder]). *)
val recorder : env -> Obs.Recorder.t

(** [pool env] is the env's domain pool ([env.ctx.pool]). *)
val pool : env -> Support.Pool.t

(** [make_env ()] builds a fresh env with empty caches. [ctx] defaults
    to {!Support.Ctx.default} (global recorder, global pool sized by
    [--jobs], no fault plan); pass an explicit
    context to isolate a run's telemetry or to arm fault injection.
    Results commit in index order, so build outputs are byte-identical
    for any pool width. *)
val make_env : ?workers:int -> ?mem_limit:int -> ?ctx:Support.Ctx.t -> unit -> env

(** Fault accounting of one build. All zero when the env's context
    carries no active plan. *)
type fault_stats = {
  injected : int;
      (** Total injected events: failed attempts, rot flips,
          stragglers (Wpa's dropped shards are counted by the
          pipeline, not here). *)
  retried : int;  (** Extra action attempts beyond the first. *)
  degraded : int;  (** Units that fell back to their last-good object. *)
  fallbacks : int;  (** Same as [degraded] at the driver layer. *)
  corrupt_evicted : int;  (** Verified reads that caught rot. *)
  stragglers : int;  (** Slowed actions (scheduler model). *)
  speculated : int;  (** Stragglers rescued by a backup copy. *)
  backoff_seconds : float;  (** Total modelled backoff wait. *)
}

type result = {
  binary : Linker.Binary.t;
  objs : Objfile.File.t list;  (** One per unit, in program unit order. *)
  cache_hits : int;  (** Units served from the cache in this build. *)
  cache_misses : int;  (** Units re-generated in this build. *)
  wall_seconds : float;  (** Codegen makespan + link time. *)
  cpu_seconds : float;  (** Total backend compute + link time. *)
  codegen_report : Scheduler.result;  (** The codegen fan-out. *)
  link_stats : Linker.Link.stats;
  faults : fault_stats;  (** Fault accounting; all zero when clean. *)
}

(** [unit_action_key u options] is the content-addressed action key of
    compiling [u] under [options]. Sensitive to the unit's IR (including
    the exact PGO estimates block layout reads), to the global codegen
    flags, and to the directives/prefetch sites naming
    functions of *this* unit — a plan for a foreign function must not
    invalidate it (that selectivity is what Fig 9's cache column
    measures). *)
val unit_action_key : Ir.Cunit.t -> Codegen.options -> Support.Digesting.t

(** The digests unit keys and verified cache reads take through memos:
    a function's printed IR then PGO bits, and an object's fields. *)
val func_digest_uncached : Ir.Func.t -> Support.Digesting.t

val obj_digest_uncached : Objfile.File.t -> Support.Digesting.t

(** [build env ~name ~program ~codegen_options ~link_options] compiles
    every unit (through the cache) and links the result. With an
    active fault plan in [env.ctx] the build additionally runs the
    retry/degradation machinery described above; fault counters
    ([fault.injected/retried/degraded], ...) are recorded only in that
    case, keeping fault-free telemetry byte-identical. *)
val build :
  env ->
  name:string ->
  program:Ir.Program.t ->
  codegen_options:Codegen.options ->
  link_options:Linker.Link.options ->
  result
