(** Flat open-addressing int -> int hash table.

    Zero-allocation steady-state bumps and lookups: keys and values
    live in two plain int arrays (linear probing, power-of-two
    capacity, load factor <= 1/2). Keys must be non-negative —
    addresses and {!Packed} pair keys are.

    Iteration order is slot order: deterministic for a given insertion
    sequence but not sorted; use {!sorted_items} for canonical dumps.
    Consumers that were robust to stdlib [Hashtbl]'s order keep the
    same contract here. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] expected keys. *)

val length : t -> int
(** Number of distinct keys present. *)

val add : t -> int -> int -> unit
(** [add t key delta] bumps [key]'s value by [delta], inserting it at
    [delta] when absent. Raises [Invalid_argument] on negative keys. *)

val find : t -> int -> int
(** [find t key] is [key]'s value, or [0] when absent. *)

val slot : t -> default:int -> int -> int
(** [slot t ~default key] is the slot holding [key], inserting [key] at
    [default] when absent: one probe for a read-modify-write through
    {!slot_value} and {!set_slot}. The slot is valid until the next
    insertion into [t]. Raises [Invalid_argument] on a negative key. *)

val slot_value : t -> int -> int
(** [slot_value t i] is the value in slot [i]. *)

val set_slot : t -> int -> int -> unit
(** [set_slot t i v] replaces the value in slot [i]. *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f key value] in slot order. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val sorted_items : t -> (int * int) array
(** All (key, value) pairs sorted by key — canonical content order. *)
