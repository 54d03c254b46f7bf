(** The execution engine.

    Interprets an {!Image.t} for a fixed number of requests (invocations
    of [main]), streaming fetch/branch events to a sink. Control-flow
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

(** [taken_branches s] counts all physically taken transfers — the
    [br_inst_retired.near_taken] proxy (Table 4, B2). *)
val taken_branches : stats -> int

(** [run ?ctx image config sink] executes and returns aggregate
    counters, under an ["exec:run"] span on the context's recorder
    (default {!Obs.Recorder.global}). Events are delivered to [sink] in
    emission order via the flat tape ({!run_tape} is the direct path);
    [Event.null] short-circuits delivery entirely. *)
val run : ?ctx:Support.Ctx.t -> Image.t -> config -> Event.sink -> stats

(** [run_tape ?ctx image config ~drain] is the flat fast path: the
    engine writes events onto a preallocated {!Event.tape} and calls
    [drain] each time it fills and once at end of run. [drain] must
    consume the tape synchronously (the buffer is reused after it
    returns). Hot consumers pair this with their [consume] drains
    ([Uarch.Core.consume], [Perfmon.Lbr.consume]) to process events
    without closure indirection or float boxing; {!Event.replay} adapts
    a tape back onto any closure sink.

    Each domain keeps one spare tape: a run takes it, and puts it back
    after its final flush, so runs one after another on a domain
    allocate no tape. A run started inside [drain] (a nested run) finds
    no spare and makes its own; its events go to its own [drain] only,
    and the outer run's tape is left as it was. *)
val run_tape : ?ctx:Support.Ctx.t -> Image.t -> config -> drain:(Event.tape -> unit) -> stats
