(** The BOLT baseline: a monolithic post-link optimizer (paper §5;
    Lightning BOLT options modelled).

    Consumes the same LBR profile as Propeller and runs the same layout
    algorithms (Ext-TSP blocks, hfsort functions, hot/cold splitting) —
    but through the disassemble-and-rewrite delivery mechanism, with
    its memory/time profile and its failure modes on hardened binaries
    (paper §5.8). Blocks are always reordered with Ext-TSP
    ([-reorder-blocks=cache+]) and functions with hfsort
    ([-reorder-functions=hfsort]). *)

type options = {
  lite : bool;
      (** Lightning-BOLT selective processing (lower memory); the paper
          disables it ([-lite=0]) when measuring peak performance. *)
  split_functions : bool;  (** [-split-functions=3 -split-all-cold]. *)
  peephole : bool;  (** The extra disassembly-level optimizations. *)
}

(** The paper's memory/runtime evaluation configuration (§5). *)
val fast_options : options

(** The paper's performance evaluation configuration ([-lite=0]). *)
val perf_options : options

type result = {
  binary : Linker.Binary.t;  (** The "BO" rewritten binary. *)
  startup_ok : bool;
      (** Whether the rewritten binary survives startup: restartable
          sequences and FIPS startup self-checks break it (§5.8). *)
  rewritten_funcs : int;
  skipped_funcs : int;  (** Functions disassembly refused. *)
  conversion_mem_bytes : int;  (** perf2bolt peak RSS (Fig 4). *)
  conversion_seconds : float;
  optimize_mem_bytes : int;  (** llvm-bolt peak RSS (Fig 5). *)
  optimize_seconds : float;  (** llvm-bolt run time (Fig 9). *)
}

(** [optimize ?options ~ctx ~profile ~binary ~is_asm ~hazards ~name ()]:
    [binary] must be the relocations-retaining ("BM") build; [is_asm]
    flags functions whose disassembly would fail (hand-written
    assembly); of [hazards], restartable sequences and FIPS startup
    checks make the rewrite fail at startup. The rewrite's link records on [ctx]'s recorder. *)
val optimize :
  ?options:options ->
  ctx:Support.Ctx.t ->
  profile:Perfmon.Lbr.profile ->
  binary:Linker.Binary.t ->
  is_asm:(string -> bool) ->
  hazards:Progen.Spec.hazards ->
  name:string ->
  unit ->
  result
