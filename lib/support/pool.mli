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

(** [create ~jobs] makes a pool of [jobs] workers. Raises
    [Invalid_argument] when [jobs < 1]. *)
val create : jobs:int -> t

val jobs : t -> int

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

(** [with_pool ~jobs f] runs [f] on a fresh pool of [jobs] workers and
    shuts it down on the way out (exceptions included). Raises
    [Invalid_argument] when [jobs < 1]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
