(** Mutable max-priority queue with stable handles.

    Ext-TSP's "logarithmic time retrieval of the most profitable action"
    (paper §4.7) needs a heap whose entries can be re-prioritised or
    removed when chain merges invalidate candidate gains. This is a binary
    heap with an index side-table providing O(log n) insert, remove,
    update and pop-max. Ties are broken by insertion order so the layout
    algorithms are deterministic. *)

type 'a t

type handle

(** [create ()] returns an empty queue. *)
val create : unit -> 'a t

(** [length t] is the number of live entries. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add t ~priority v] inserts [v] and returns a handle for later
    update/removal. *)
val add : 'a t -> priority:float -> 'a -> handle

(** [remove t h] removes the entry behind [h]. Raises [Invalid_argument]
    if the handle is dead. *)
val remove : 'a t -> handle -> unit

(** [mem t h] is [true] if the handle is still live; [false] for a
    removed, popped or never-issued handle. *)
val mem : 'a t -> handle -> bool

(** [update t h ~priority] changes the priority of a live entry. *)
val update : 'a t -> handle -> priority:float -> unit

(** [pop_max t] removes and returns the highest-priority entry, or [None]
    if empty. *)
val pop_max : 'a t -> ('a * float) option

(** [peek_max t] returns the highest-priority entry without removing it. *)
val peek_max : 'a t -> ('a * float) option

(** [iter t f] applies [f] to every live value (heap order, unspecified). *)
val iter : 'a t -> ('a -> unit) -> unit
