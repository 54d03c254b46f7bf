(** Packed (src, dst) address-pair keys for flat profile tables.

    One immediate int per pair instead of a heap tuple: 31 bits per
    address half (2 GiB of text), 62 bits total, sign bit clear. The
    encoding is order-preserving: sorting packed keys sorts by (src,
    dst) lexicographically. *)

val max_addr : int
(** Largest packable address, [2^31 - 1]. *)

val pack : src:int -> dst:int -> int
(** [pack ~src ~dst] packs a pair. Raises [Invalid_argument] when either
    half is negative or exceeds {!max_addr}. *)

val pack_unsafe : src:int -> dst:int -> int
(** Unchecked {!pack} for hot loops over already-validated addresses. *)

val src : int -> int
(** First half of a packed key. *)

val dst : int -> int
(** Second half of a packed key. *)

val tuple_hash : int -> int
(** [tuple_hash key] is [Hashtbl.hash (src key, dst key)], computed
    without allocating the tuple. *)

(** Hash tables over packed keys, hashed by {!tuple_hash}. Buckets,
    resizes and so iteration order are exactly those of an
    [(int * int, _) Hashtbl.t] fed the same operations, so code that
    drops tuple keys keeps every order-dependent tie-break. *)
module Tbl : Hashtbl.S with type key = int
