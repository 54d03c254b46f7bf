(** The compiler backend: turns IR compilation units into object files.

    Mirrors Phase 1–2 of the Propeller pipeline (paper §3.1–3.2): all
    optimizations — including PGO-driven intra-function block layout —
    run here, and the [.llvm_bb_addr_map] metadata section is emitted on
    request. In Phase 4 the same backend re-runs over hot units only,
    this time steered by cluster {!Directive}s from the whole-program
    analysis. *)

(** Re-exported submodules: layout directives, the lowering layer, and
    the ThinLTO-style inliner. *)
module Directive = Directive

module Lower = Lower

module Inline = Inline


type options = {
  emit_bb_addr_map : bool;
      (** Emit profile-mapping metadata (the "PM" build of Fig 6). *)
  pgo_layout : bool;
      (** Order blocks within a function by Ext-TSP over PGO-estimated
          edge frequencies (instrumented-PGO baseline); otherwise keep
          source order (-O3-only). *)
  plans : Directive.t;
      (** Cluster directives for hot functions (Phase 4); empty for
          vanilla builds. *)
  prefetch_sites : (string * int) list;
      (** (function, block) pairs where a software prefetch should be
          inserted ahead of the delinquent loads — the summary-based
          directive of the paper's §3.5 prefetch design. *)
}

val default_options : options

(** [intra_order ~use_pgo f] is the compile-time block order for [f]:
    Ext-TSP over estimated frequencies, or source order when [use_pgo]
    is false or the function carries inline assembly (which is never
    reordered). Ext-TSP orders are memoized by physical function, so a
    function compiled by several builds is laid out once. *)
val intra_order : use_pgo:bool -> Ir.Func.t -> int list

(** [intra_problem f] is the Ext-TSP problem {!intra_order} solves for
    [f]: block code sizes, PGO-estimated block and edge frequencies,
    entry block 0. *)
val intra_problem : Ir.Func.t -> Layout.Problem.t

(** [compile_unit ?ctx options u] emits the object file of unit [u]:
    per-function text sections (respecting [options.plans]), address-map
    metadata, [.eh_frame] (one CIE plus one FDE per text section; extra
    fragments pay the callee-saved re-emission toll of §4.4), exception
    tables, and the unit's rodata/data. With [ctx], per-function
    lowering fans out across the context's domain pool; the emitted
    object is byte-identical to the sequential one. *)
val compile_unit : ?ctx:Support.Ctx.t -> options -> Ir.Cunit.t -> Objfile.File.t

(** [compile_program ?ctx options p] compiles every unit, fanning out
    across units when a context is given. *)
val compile_program : ?ctx:Support.Ctx.t -> options -> Ir.Program.t -> Objfile.File.t list
