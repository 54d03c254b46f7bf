(** The linker (LLD stand-in).

    Responsibilities mirror the real tool as used by Propeller (paper
    §3.4, §4.2): gather input sections, order text sections by a symbol
    ordering file, resolve symbols, run the relaxation pass that deletes
    explicit fall-through jumps and shrinks branch encodings, assign
    final addresses, and emit the binary plus resource statistics from
    the {!Costmodel}. *)

exception Link_error of string

type options = {
  ordering : string list option;
      (** Symbol ordering file ([ld_prof.txt]): cluster symbols in
          desired layout order. Sections whose symbol is unlisted follow
          in input order. [None] keeps pure input order. *)
  keep_bb_addr_map : bool;
      (** Retain [.llvm_bb_addr_map] in the output (the "PM" metadata
          build). The final optimized relink drops it (§3.4). The
          retained map describes the final blocks: the binary keeps
          each mapped section's block range
          ({!Binary.t.bb_addr_map}), and the map's encoded size is
          computed from those blocks' final offsets and sizes. *)
  emit_relocs : bool;
      (** Keep static relocations in the output ([--emit-relocs], needed
          by BOLT-style rewriters; the "BM" build of Fig 6). *)
  relax : bool;  (** Run the relaxation pass (§4.2). *)
  text_align : int;  (** Alignment of the text segment start (4K / 2M). *)
  base_addr : int;
}

val default_options : options

type stats = {
  input_bytes : int;
  output_bytes : int;
  num_input_sections : int;
  relax_iters : int;  (** Sweeps until the relaxation fixpoint. *)
  deleted_jumps : int;  (** Fall-through jumps removed. *)
  shrunk_branches : int;  (** Long -> short encodings. *)
  peak_mem_bytes : int;
  cpu_seconds : float;
}

type outcome = { binary : Binary.t; stats : stats }

(** [link ?ctx ?options ~name ~entry objs] produces the executable.
    Raises {!Link_error} on duplicate or unresolved symbols.
    Relaxation-iteration, deleted-jump, shrunk-branch and
    resolved-symbol counters are recorded on the context's recorder
    (default {!Obs.Recorder.global}), and [linker.relax.grown_branches]
    when relaxation had to grow a short branch back to long (section
    alignment or a branch reversal put it out of rel8 range); such a
    branch stays long. *)
val link :
  ?ctx:Support.Ctx.t ->
  ?options:options ->
  name:string ->
  entry:string ->
  Objfile.File.t list ->
  outcome
