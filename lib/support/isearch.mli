(** Covering-interval binary search over sorted flat int arrays.

    The one covering search of the code base: every address-to-block
    lookup ([Linker.Binary.find_block_by_addr], [Propeller.Dcfg]'s
    address-map index, [Inspect.Resolve] for blocks and sections)
    calls it. Intervals are given as parallel [addrs] (ascending start
    addresses) and [sizes] arrays; a query returns the index of the
    interval covering it. Intervals are assumed disjoint.

    {b Known miss.} The search compares the probe with the midpoint
    interval only. When a non-empty interval starting at [a] sorts
    before a zero-size interval also starting at [a], a probe inside
    the non-empty one can land on the empty one and go right, so
    [covering] returns [-1] for bytes that are covered. Linked images
    have such pairs (relaxation empties blocks). Without zero-size
    intervals the search has no miss. The fix (take the rightmost
    interval starting at or before the probe, then check the intervals
    sharing its start) lives in this function alone; it changes which
    bytes resolve and so the layouts and digests built from them, and
    waits for the re-pin that makes image digests independent of hash
    order (step A of ROADMAP item 1). *)

val covering : addrs:int array -> sizes:int array -> int -> int
(** [covering ~addrs ~sizes addr] is an index [i] with
    [addrs.(i) <= addr < addrs.(i) + sizes.(i)], or [-1] when the
    search finds none — also, for the known miss above, when one
    exists. *)

val covering_batch : addrs:int array -> sizes:int array -> int array -> int array
(** [covering_batch ~addrs ~sizes queries] resolves every query:
    [out.(j) = covering ~addrs ~sizes queries.(j)]. *)
