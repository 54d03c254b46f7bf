(** Profile guided, post-link software prefetch insertion (paper §3.5).

    "The whole-program analysis of cache miss profiles determines
    prefetch insertion points. A summary-based directive can then drive
    the distributed code generation actions that modify the objects and
    insert prefetch instructions."

    The analysis maps PEBS miss samples back to machine basic blocks
    through the BB address map (no disassembly, like the layout path)
    and nominates the hottest blocks covering 90% of the sampled misses,
    skipping blocks with fewer than 2 samples (prefetching rare sites
    wastes code bytes). *)

type result = {
  sites : (string * int) list;  (** (function, block) directives. *)
  sampled_misses : int;
  covered_misses : int;  (** Samples attributed to nominated sites. *)
}

(** [analyze ~pebs ~binary] computes insertion directives against a
    metadata binary. *)
val analyze : pebs:Perfmon.Pebs.profile -> binary:Linker.Binary.t -> result
