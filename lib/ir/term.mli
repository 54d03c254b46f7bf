(** Basic block terminators.

    Each conditional terminator carries two probabilities: [prob], the
    true behaviour under the production workload (used by the execution
    engine), and [pgo_prob], the estimate baked in by instrumented PGO
    training (used by the baseline compile-time layout). The gap between
    the two models the profile-staleness that post-link optimizers
    exploit (paper §2.2, §2.4). *)

type t =
  | Jump of int  (** Unconditional transfer to block [id]. *)
  | Branch of {
      cond : Isa.Cond.t;
      taken : int;
      fallthrough : int;
      prob : float;  (** True probability the branch is taken. *)
      pgo_prob : float;  (** PGO-training estimate of the same. *)
    }
  | Switch of {
      table : int array;  (** Jump-table targets (block ids). *)
      probs : float array;  (** True target distribution. *)
      pgo_probs : float array;  (** PGO estimate of the same. *)
    }
  | Return

(** [successors t] lists successor block ids in deterministic order. *)
val successors : t -> int list

(** [map_blocks f t] renames block ids through [f]. *)
val map_blocks : (int -> int) -> t -> t

(** [pp] prints [t]'s one-line text. It omits the PGO estimates. *)
val pp : Format.formatter -> t -> unit

(** [feed st t] feeds [st] the bytes [pp] prints. *)
val feed : Support.Digesting.state -> t -> unit
