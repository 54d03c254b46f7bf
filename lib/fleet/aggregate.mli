(** Sharded fleet profile aggregation (paper §2: the profile store that
    merges samples streaming in from many machines, including samples
    collected on {e already-optimized} binaries of older generations).

    Shards are pushed per serve round and kept for a bounded window of
    rounds. Merging targets one layout generation (by image digest).
    Every shard — current generation included — is decoded against the
    layout it was collected on into logical (function, block) transfer
    evidence via {!Inspect.Resolve}, then re-encoded the way a profile
    collected {e on the target layout} would have recorded it: a
    transfer whose destination block is placed address-adjacent after
    its source becomes fall-through range evidence, everything else a
    taken-branch record. The merged aggregate is therefore one
    canonical function of (logical traffic, target layout) — it does
    not depend on which layout any shard was sampled on, which gives
    the continuous relink loop a true fixed point to converge to.
    Address pairs whose block no longer exists are dropped and counted.

    Older rounds decay: a pair's weight is scaled by [decay^age] where
    age is in rounds, so stale layouts fade from the aggregate instead
    of pinning it forever.

    Merging is order-independent: pushing the same shards in any order
    yields a byte-identical canonical profile (the qcheck law in the
    test suite), so jobs-N and jobs-1 fleets relink identical images. *)

type t

(** Per-merge accounting. *)
type stats = {
  shards_merged : int;  (** Shards contributing to the aggregate. *)
  stale_shards : int;  (** ... of which needed layout translation. *)
  dropped_shards : int;
      (** Shards skipped because their image was never registered. *)
  translated_pairs : int;  (** Address pairs re-projected successfully. *)
  dropped_pairs : int;  (** Pairs whose block vanished from the target. *)
  batches : int;  (** Rounds in the window at merge time. *)
}

(** [create ()] builds an empty store. [window] is the number of serve
    rounds retained (default 4); [decay] the per-round count decay
    (default 0.5); [lbr_depth] the ring depth of the collector the
    shards came from (default 32) — used to deflate taken-branch
    record counts by [(depth - 1) / depth] so they sit on the same
    scale as fall-through range evidence, whose ring multiplicity is
    one lower. Weights accumulate as floats and round once at merge
    end, so decayed evidence fades to zero instead of pinning the
    aggregate. *)
val create : ?window:int -> ?decay:float -> ?lbr_depth:int -> unit -> t

(** [index_order res] is every placed block of [res]'s image as a
    location, ordered by address, then by function name; blocks of one
    function at one address keep [res]'s address order. This is the
    range-walk order {!register} indexes. *)
val index_order : Inspect.Resolve.t -> Inspect.Resolve.location array

(** [register t binary] indexes an image for shard translation. Every
    image a shard can be collected on — deployed generations and
    canary candidates, including rejected ones — must be registered. *)
val register : t -> Linker.Binary.t -> unit

(** [push t ~round shards] stores one serve round's shards (internally
    sorted by machine id — push order never matters) and expires
    rounds older than the window. *)
val push : t -> round:int -> Machine.shard list -> unit

(** [merged t ~target] merges the window into one canonical profile in
    the address space of the registered image [target] (hex digest),
    with decay applied per round of age. The returned profile's
    hashtables are rebuilt in sorted pair order, so its layout is a
    pure function of its contents. *)
val merged : t -> target:string -> Perfmon.Lbr.profile * stats

(** [signature p] is a content digest (hex) over the sorted branch,
    range and mispredict pairs and the sample totals of [p] —
    the aggregate identity used by determinism checks. *)
val signature : Perfmon.Lbr.profile -> string
