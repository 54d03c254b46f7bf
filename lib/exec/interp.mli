(** The execution engine.

    Interprets an {!Image.t} for a fixed number of requests (invocations
    of [main]), streaming fetch/branch events to a drain. Control-flow
    decisions are stateless hashes of (block uid, visit count), so two
    images of the *same program* under *different layouts* execute the
    identical logical trace — only addresses differ. That is precisely
    the property needed to compare layouts fairly.

    Bounded execution: each request stops after [max_steps_per_request]
    block executions (loops are probabilistic and unbounded otherwise),
    and calls deeper than [call_depth_limit] are elided (deterministic,
    layout-independent). *)

type config = {
  requests : int;
  max_steps_per_request : int;
  call_depth_limit : int;
}

val default_config : config

type stats = {
  blocks_executed : int;
  bytes_fetched : int;
  cond_branches : int;  (** Conditional branch instructions retired. *)
  cond_taken : int;  (** ... of which physically taken. *)
  uncond_jumps : int;  (** Unconditional jumps retired (post-relax). *)
  indirect_jumps : int;
  calls : int;
  returns : int;
  dloads : int;  (** Delinquent loads retired. *)
  dmisses : int;  (** ... that missed the data caches uncovered. *)
  dcovered : int;  (** ... whose miss a software prefetch hid. *)
  requests_completed : int;
}

(** [run ?ctx image config drain] executes and returns aggregate
    counters, under an ["exec:run"] span on the context's recorder
    (default {!Obs.Recorder.global}). The engine writes events onto a
    preallocated {!Event.tape} and calls [drain] each time it fills and
    once at end of run. [drain] must consume the tape synchronously (the
    buffer is reused after it returns). Every consumer's [consume]
    ([Uarch.Core.consume], [Perfmon.Lbr.consume], …) is such a drain;
    several consumers share a run through one drain that calls each in
    turn. For {!Event.null} the engine writes no tape at all; the stats
    are the same.

    Each domain keeps one spare tape: a run takes it, and puts it back
    after its final flush, so runs one after another on a domain
    allocate no tape. A run started inside [drain] (a nested run) finds
    no spare and makes its own; its events go to its own [drain] only,
    and the outer run's tape is left as it was. *)
val run : ?ctx:Support.Ctx.t -> Image.t -> config -> (Event.tape -> unit) -> stats

(** [run_tape ?ctx image config ~drain] is [run ?ctx image config drain]
    under a labelled name. *)
val run_tape : ?ctx:Support.Ctx.t -> Image.t -> config -> drain:(Event.tape -> unit) -> stats
