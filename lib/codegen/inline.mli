(** ThinLTO-style cross-module inlining (paper §2.3, §3.1).

    Phase 1 runs every middle-end optimization, including summary-based
    cross-unit function importing and inlining, *before* the
    profile-mapping metadata is emitted. This module models that pass:
    hot call sites to small functions are replaced by a spliced copy of
    the callee's CFG.

    Inlining is also where instrumented-PGO profiles go stale (paper
    §2.2): the inlined copy's branches execute in a new context the
    training run never attributed, modelled by extra noise on the PGO
    estimates of cloned blocks — while the *true* probabilities (what
    hardware profiling later observes) are preserved.

    A call site is inlined when its block's PGO-estimated frequency is
    at least 0.8 per call of the caller and the callee has at most 4
    blocks and no inline assembly; each caller takes at most 4 sites.
    Cloned PGO estimates move by up to ±0.2, drawn from a stream seeded
    by the caller's name. *)

(** [program p] inlines the hot call sites of every function. The
    returned program is a valid {!Ir.Program.t} (revalidated). *)
val program : Ir.Program.t -> Ir.Program.t
