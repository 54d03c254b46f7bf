(** Content digests for the build system's content-addressed cache.

    A digest is 128 bits from two FNV-1a 64-bit streams over the same
    bytes: [hi] starts from the offset basis [0xCBF29CE484222325]; [lo]
    starts from [0x84222325CBF29CE4] (the basis, halves swapped) and
    takes one byte [0x01] after the input. Good enough for a simulation
    where adversarial collisions are out of scope, and dependency-free.

    A {!state} advances both streams together over bytes fed in pieces,
    so a key is hashed as it is rendered, with no intermediate string:
    any chunking finishes like {!of_string} of the whole. *)

type t

val equal : t -> t -> bool

(** [to_hex d] renders the digest as a 32-char lowercase hex string. *)
val to_hex : t -> string

(** [of_string s] digests the full contents of [s]. *)
val of_string : string -> t

(** A digest in progress, owned by one domain. *)
type state

val init : unit -> state

val add_string : state -> string -> unit

val add_char : state -> char -> unit

(** The bytes of [string_of_int n]. *)
val add_int : state -> int -> unit

(** The eight bytes [Buffer.add_int64_le] writes. *)
val add_int64_le : state -> int64 -> unit

(** The bytes of [Printf.sprintf "%.2f" x], exactly. *)
val add_fixed2 : state -> float -> unit

(** The 32 bytes of [to_hex d]: an action key digests the hex of its
    input digests (tool id, functions, flags) this way. *)
val add_hex : state -> t -> unit

(** [finish st] digests every byte fed to [st], leaving [st] as it is. *)
val finish : state -> t
