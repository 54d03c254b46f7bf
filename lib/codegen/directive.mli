(** Code layout directives — the [cc_prof.txt] contract between the
    whole-program analysis (Phase 3) and the distributed codegen backends
    (Phase 4, paper §3.3–3.4).

    A directive assigns each listed function a partition of (some of) its
    blocks into ordered clusters; each cluster becomes one text section.
    Blocks not listed in any cluster implicitly form the cold cluster. *)

type kind =
  | Primary  (** Retains the function's own symbol. *)
  | Cold  (** Gains the [.cold] suffix. *)
  | Extra of int  (** Numbered cluster for inter-procedural layout. *)

type cluster = { kind : kind; blocks : int list }

type func_plan = { func : string; clusters : cluster list }

type t = func_plan list

(** [symbol plan_func cluster] is the link-time symbol of a cluster. *)
val symbol : string -> cluster -> string

(** [validate ~num_blocks plan] checks that clusters partition a subset
    of [0 .. num_blocks-1] with no duplicates, that exactly one cluster
    is [Primary], and that the primary cluster starts with block 0.
    Returns an error message on failure. *)
val validate : num_blocks:int -> func_plan -> (unit, string) result

(** [find t func] is the plan for [func], if directed. *)
val find : t -> string -> func_plan option

(** Serialization in the spirit of the [cc_prof.txt] exchange format:
    ["!func"] introduces a function, ["!!kind 0 3 7"] one cluster. *)
val to_text : t -> string

(** [feed st p] feeds [st] the bytes [to_text [p]] renders, building no
    string: a unit's action key digests its plans' text this way. *)
val feed : Support.Digesting.state -> func_plan -> unit
