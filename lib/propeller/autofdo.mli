(** Edge-weight synthesis from flat stack samples — the AutoFDO trick.

    A {!Perfmon.Sampler} profile knows only block residency (leaf PCs)
    and call arcs; it has no branch records, so {!Dcfg.build} cannot
    consume it directly. This module bridges the gap the way AutoFDO and
    the Go PGO pipeline do: estimate per-block execution counts from
    size-normalized sample residency, then fit edge weights over the
    *static* CFG successor sets by iterative proportional fitting — each
    block's out-flow and in-flow are scaled toward its count until the
    weights are flow-consistent (a cheap deterministic cousin of LLVM's
    profi solver), with unsampled blocks joining as free nodes that
    carry whatever flow conservation forces through them. Call arcs are
    rescaled from stack-residency units to execution units, and blocks
    whose zero count is statistically uninformative are pinned hot so
    splitting stays conservative. The result is re-encoded as an
    LBR-shaped profile (ranges carry residency, branch records carry
    synthesized edges and call arcs) so the whole WPA path runs
    unchanged.

    Deliberately absent, because the source cannot see them: branch
    direction bits beyond what residency implies, and the mispredict
    table (left empty). That missing information *is* the LBR-fidelity
    gap that [Diagnostics.Fidelity] measures. *)

(** [synthesize ~period ~samples ~program ~binary] converts a sampled
    profile collected while executing [binary] (which must carry a BB
    address map) into an LBR-shaped profile. [program] supplies the
    static CFG topology — successor *sets* only; the true branch
    probabilities are never consulted. [period] is the sampler's mean
    sampling period, used to scale residency to execution counts.
    Raises [Invalid_argument] when [binary] has no address map. *)
val synthesize :
  period:int ->
  samples:Perfmon.Sampler.profile ->
  program:Ir.Program.t ->
  binary:Linker.Binary.t ->
  Perfmon.Lbr.profile
