(** A fixed-size domain pool (OCaml 5 [Domain]s).

    The pool runs batches of independent, integer-indexed tasks. Tasks
    are split into one contiguous share per worker, each with an atomic
    cursor. A worker claims the tasks of its own share one
    [Atomic.fetch_and_add] at a time, then claims what is left of the
    other shares in turn. Claims take no lock; the only mutex guards the
    batch hand-off and the barrier at its end.

    {b Determinism guarantee}: results are committed in task-index
    order, so every [map_*]/[map_reduce] result is identical for any
    [jobs] value — byte-identical outputs are the contract the relink
    pipeline builds on (the paper's parallel sharding must not change
    the image, §3.4). Only wall-clock time and the per-domain telemetry
    in {!stats} vary with [jobs].

    A pool of [jobs = 1] never spawns a domain and runs every batch
    inline in index order — exactly the sequential code path. Worker
    domains are spawned lazily on the first parallel batch and torn
    down by {!shutdown} (also installed via [at_exit] as a backstop, so
    a forgotten pool cannot hang process exit).

    Nested use is safe: a task that itself calls into the pool (any
    pool) runs that inner batch sequentially inline, avoiding worker
    starvation deadlocks. *)

type t

(** [default_jobs ()] is the pool width used when none is given
    explicitly: the last {!set_default_jobs} value, else 1. *)
val default_jobs : unit -> int

(** [set_default_jobs j] sets the process-wide default (the [--jobs N]
    CLI flags call this). Raises [Invalid_argument] when [j < 1]. *)
val set_default_jobs : int -> unit

(** [create ?jobs ()] makes a pool of [jobs] workers (default
    {!default_jobs}). Raises [Invalid_argument] when [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [global ()] is the shared pool sized to {!default_jobs} — what
    [Buildsys.Driver.make_env] uses when no pool is passed. Re-created
    (old one shut down) if the default changed since the last call. *)
val global : unit -> t

(** [map_array pool n f] computes [[| f 0; ...; f (n-1) |]] across the
    pool. If any task raises, the exception of the {e lowest} raising
    index is re-raised (deterministically) after the batch drains. *)
val map_array : t -> int -> (int -> 'a) -> 'a array

(** [map_list pool f xs] is [List.map f xs] across the pool. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [map_reduce pool ~n ~task ~init ~fold] folds task results in index
    order: [fold (... (fold init (task 0))) (task (n-1))]. *)
val map_reduce : t -> n:int -> task:(int -> 'a) -> init:'b -> fold:('b -> 'a -> 'b) -> 'b

(** [parallel_iter pool ~n f] runs [f i] for [0 <= i < n]; [f] must
    only write state owned by task [i] (e.g. slot [i] of an array). *)
val parallel_iter : t -> n:int -> (int -> unit) -> unit

(** Cumulative fan-out telemetry since the last {!reset_stats}: how
    many tasks each worker executed, how many of those it claimed from
    another worker's share (steals), and the number of batches run.
    Per-domain assignment is scheduling-dependent — informational only, never part
    of judged output. *)
type stats = { tasks_per_worker : int array; steals : int; batches : int }

val stats : t -> stats

val reset_stats : t -> unit

(** [shutdown pool] joins all worker domains. Idempotent; the pool
    falls back to inline sequential execution afterwards. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] runs [f] on a fresh pool and shuts it down on
    the way out (exceptions included). *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
