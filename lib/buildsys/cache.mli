(** The content-addressed artifact cache (paper §3.1, §3.4).

    Actions are keyed by a digest of (tool, inputs, flags); a key hit
    returns the stored artifact without running the action — the
    mechanism that makes Propeller's Phase-4 relink cheap: only objects
    whose directives changed get re-generated, and only functions whose
    profile counts changed get their layout recomputed; everything cold
    is a cache hit.

    The cache is unbounded (the warehouse CAS model). Lookups and
    commits always happen on the build coordinator, in unit order, so
    its contents and counters are deterministic for any [--jobs] width.

    Hit/miss/stored-bytes accounting is kept per cache; {!Driver}
    mirrors the deltas into its telemetry recorder. *)

type 'a t

(** [create ()] makes an empty cache. *)
val create : unit -> 'a t

(** [find c key] looks [key] up, counting a hit or a miss. The build
    driver uses the split [find]/[add] pair so artifact computation can
    fan out on the domain pool between the two, while all cache mutation
    stays on the coordinator. *)
val find : 'a t -> Support.Digesting.t -> 'a option

(** [add c key ~size v] stores [v] under [key], charging [size v] bytes
    (replacing any previous entry). When [digest_of] is given, a content
    digest of [v] is recorded with the entry so later {!find_verified}
    reads can detect rot. *)
val add :
  ?digest_of:('a -> Support.Digesting.t) -> 'a t -> Support.Digesting.t -> size:('a -> int) -> 'a -> unit

(** [find_verified c key ~digest_of] is [find] with an integrity check:
    [digest_of] of the stored value is compared on read against the
    digest recorded at {!add} time. A mismatch means the entry rotted in
    storage — it is evicted, counted as both a miss and a corruption,
    and reported as [`Corrupt] so the caller re-runs the action (the
    checksum-failure path of a warehouse CAS). Entries stored without a
    digest are trusted and hit normally. *)
val find_verified :
  'a t -> Support.Digesting.t -> digest_of:('a -> Support.Digesting.t) -> [ `Hit of 'a | `Miss | `Corrupt ]

(** [corrupt c key] simulates bit rot: the entry's stored digest is
    flipped in place so the next {!find_verified} read fails
    verification. Returns false when [key] is absent. Used by the fault
    injector ({!Faultsim.Plan.corrupts}) and by tests; plain {!find}
    does not check digests and is unaffected. *)
val corrupt : 'a t -> Support.Digesting.t -> bool

val hits : 'a t -> int

val misses : 'a t -> int

(** [stored_bytes c] is the total size of all stored artifacts. *)
val stored_bytes : 'a t -> int

(** [hit_rate c] is [hits / (hits + misses)]; 0 before any lookup. *)
val hit_rate : 'a t -> float
