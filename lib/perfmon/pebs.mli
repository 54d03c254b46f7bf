(** PEBS-style precise data-miss sampling.

    The paper's §3.5 sketches profile-guided post-link prefetch
    insertion driven by cache-miss profiles; those profiles come from
    precise-event sampling of load misses (PEBS on Intel). This
    collector samples every [period]-th uncovered delinquent-load miss
    and records the retiring instruction address. *)

type config = { period : int }

val default_config : config

type profile = {
  misses : Support.Itab.t;  (** Load end-address -> sample count. *)
  mutable num_samples : int;
}

val create_profile : unit -> profile

type collector
(** Mutable sampling state over a target profile. *)

val collector_state : config -> profile -> collector

val consume : collector -> Exec.Event.tape -> unit
(** [consume c tape] drains a flat event tape (pairs with
    {!Exec.Interp.run_tape}). *)
