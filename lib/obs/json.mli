(** A minimal JSON tree: enough to emit Chrome trace-event files and
    metrics reports, and to re-parse them for validation (the smoke
    check and the well-formedness tests round-trip through {!parse}).
    Dependency-free on purpose. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] renders compact JSON. Strings are escaped per RFC
    8259; non-finite floats degrade to [0] (JSON has no NaN/inf). *)
val to_string : t -> string

(** [parse s] reads one JSON value (surrounding whitespace allowed).
    Numbers with a fraction or exponent parse as [Float], others as
    [Int]. Returns a descriptive error with a byte offset on failure,
    including for arrays and objects nested more than 1000 deep. It
    never raises. *)
val parse : string -> (t, string) result

(** [member name v] looks up a field of an [Obj]. *)
val member : string -> t -> t option
