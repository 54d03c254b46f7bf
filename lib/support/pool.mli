(** A fixed-size domain pool (OCaml 5 [Domain]s).

    The pool runs batches of independent, integer-indexed tasks. Tasks
    are split into one contiguous share per worker, each with an atomic
    cursor. A worker claims the tasks of its own share one
    [Atomic.fetch_and_add] at a time, then claims what is left of the
    other shares in turn. Claims take no lock; the only mutex guards the
    batch hand-off and the barrier at its end.

    {b Determinism guarantee}: results are committed in task-index
    order, so every {!map_array} result is identical for any
    [jobs] value — byte-identical outputs are the contract the relink
    pipeline builds on (the paper's parallel sharding must not change
    the image, §3.4). Only wall-clock time and the per-domain telemetry
    in {!stats} vary with [jobs].

    A pool of [jobs = 1] never spawns a domain and runs every batch
    inline in index order — exactly the sequential code path. Worker
    domains are spawned lazily on the first parallel batch and torn
    down when {!with_pool} returns (also installed via [at_exit] as a
    backstop, so a forgotten pool cannot hang process exit). A pool
    that was shut down runs later batches inline.

    Nested use is safe: a task that itself calls into the pool (any
    pool) runs that inner batch sequentially inline, avoiding worker
    starvation deadlocks. *)

type t

(** [set_default_jobs j] sets the process-wide default (the [--jobs N]
    CLI flags call this). Raises [Invalid_argument] when [j < 1]. *)
val set_default_jobs : int -> unit

(** [create ?jobs ()] makes a pool of [jobs] workers (default: the
    last {!set_default_jobs} value, else 1). Raises [Invalid_argument]
    when [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [global ()] is the shared pool sized to the default width — what
    [Buildsys.Driver.make_env] uses when no pool is passed. Re-created
    (old one shut down) if the default changed since the last call. *)
val global : unit -> t

(** [map_array pool n f] computes [[| f 0; ...; f (n-1) |]] across the
    pool. If any task raises, the exception of the {e lowest} raising
    index is re-raised (deterministically) after the batch drains. *)
val map_array : t -> int -> (int -> 'a) -> 'a array

(** Cumulative fan-out telemetry since the last {!reset_stats}: how
    many tasks each worker executed, how many of those it claimed from
    another worker's share (steals), and the number of batches run.
    Per-domain assignment is scheduling-dependent — informational only, never part
    of judged output. *)
type stats = { tasks_per_worker : int array; steals : int; batches : int }

val stats : t -> stats

val reset_stats : t -> unit

(** [with_pool ?jobs f] runs [f] on a fresh pool and shuts it down on
    the way out (exceptions included). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
