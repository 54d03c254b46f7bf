(** Max-priority queue of integer keys.

    Ext-TSP's "logarithmic time retrieval of the most profitable action"
    (paper §4.7) pushes each candidate merge once, as a (gain, key)
    entry, and pops the best. This is a binary heap over parallel
    arrays of priority, push sequence number and key: O(log n) add and
    pop, and neither allocates (the arrays double when full). Equal
    priorities pop in push order, so the layout algorithms are
    deterministic. Priorities must not be NaN. *)

type t

(** [create ()] returns an empty queue. *)
val create : unit -> t

(** [length t] is the number of entries. *)
val length : t -> int

(** [clear t] empties [t] and restarts its push order, keeping its
    arrays, so a reused queue allocates nothing until it outgrows
    them. *)
val clear : t -> unit

(** [add t ~priority key] pushes [key] with [priority]. *)
val add : t -> priority:float -> int -> unit

(** [add_from t prios i key] is [add t ~priority:prios.(i) key]. It
    reads the priority where the caller keeps it, so a call from another
    module boxes no float. *)
val add_from : t -> float array -> int -> int -> unit

(** [pop_max t] removes the entry with the highest priority, the
    earliest pushed among equals, and returns its key. Raises
    [Invalid_argument] if [t] is empty. *)
val pop_max : t -> int
