(** Content digests for the build system's content-addressed cache.

    A digest is a 128-bit value computed with two independent FNV-1a
    streams; good enough for a simulation where adversarial collisions are
    out of scope, and dependency-free. *)

type t

val equal : t -> t -> bool

val compare : t -> t -> int

(** [to_hex d] renders the digest as a 32-char lowercase hex string. *)
val to_hex : t -> string

(** [of_string s] digests the full contents of [s]. *)
val of_string : string -> t

(** [concat ds] combines digests in order; used for action keys built from
    (tool id, input digests, flags). *)
val concat : t list -> t
