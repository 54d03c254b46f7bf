(** Ground-truth measurement of a linked binary: build its image, run
    the benchmark's requests and drain the events into a {!Uarch.Core}
    with {!Uarch.Core.consume}. Every CLI report and bench figure that
    measures a binary calls {!run} ([propeller run], {!Fidelity},
    {!Lsearch}, the bench workbench and its ablations), so they all see
    the same core for the same spec. *)

(** [core_config spec] is the pressure-preserving core for [spec]
    (DESIGN.md §6): a program generated at 1/2^k of real size is
    measured with TLB pages shrunk by the same factor, and text maps
    with 2M pages when the spec's production does. *)
val core_config : Progen.Spec.t -> Uarch.Core.config

(** [run ?publish ~ctx ~core ~requests program binary] measures
    [binary] under [requests] of traffic on [core]. With [~publish:name]
    the counters are also recorded on [ctx]'s recorder as
    [uarch.<name>.*] (see {!Uarch.Core.publish}). *)
val run :
  ?publish:string ->
  ctx:Support.Ctx.t ->
  core:Uarch.Core.config ->
  requests:int ->
  Ir.Program.t ->
  Linker.Binary.t ->
  Exec.Interp.stats * Uarch.Core.counters
