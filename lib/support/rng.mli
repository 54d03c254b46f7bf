(** Deterministic pseudo-random number generation.

    Every stochastic choice in the simulator flows through this module so
    that all experiments are reproducible bit-for-bit. The generator is
    splitmix64, which is cheap, has a 64-bit state, and supports O(1)
    derivation of independent sub-streams ({!split}). *)

type t

(** [create seed] returns a fresh generator seeded with [seed]. *)
val create : int64 -> t

(** [of_string s] seeds a generator from the FNV-1a hash of [s]; used to
    derive stable per-entity streams (e.g. one stream per function). *)
val of_string : string -> t

(** [split t tag] derives an independent generator from [t] and [tag]
    without perturbing [t]. *)
val split : t -> int -> t

(** [next t] returns the next raw 64-bit value. *)
val next : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)]. [bound] must
    be positive. *)
val int : t -> int -> int

(** [float t] returns a uniform float in [\[0, 1)]. *)
val float : t -> float

(** [bool t p] returns [true] with probability [p]. *)
val bool : t -> float -> bool

(** [geometric t p] samples a geometric number of trials (>= 1) with
    success probability [p]; capped at 10_000 to bound loops. *)
val geometric : t -> float -> int

(** [choose t arr] picks a uniform element of [arr]. [arr] must be
    non-empty. *)
val choose : t -> 'a array -> 'a

(** [hash_choice key1 key2 p] is a stateless biased coin: returns [true]
    with probability [p], determined only by the two integer keys. The
    execution engine uses it so that a program's control flow is a pure
    function of (block id, visit count), independent of code layout. *)
val hash_choice : int -> int -> float -> bool

(** [hash_pick key1 key2 idx cum] draws [hash_float key1 key2] and
    returns [idx.(i)] for the first [i] with the draw below [cum.(i)]
    ([cum] = cumulative weights, ascending), else the last entry.
    Weighted virtual-call and switch picks in the interpreter's hot
    loop: allocation-free. *)
val hash_pick : int -> int -> int array -> float array -> int

(** [hash_pick_pos key1 key2 cum n] is {!hash_pick} returning the chosen
    *position* in [0, n) instead of an element, for callers whose
    choices live in a parallel array of [n] entries. Identical draw and
    walk, so the two agree for equal [n]. *)
val hash_pick_pos : int -> int -> float array -> int -> int

(** [hash_float key1 key2] is the underlying stateless uniform float in
    [\[0, 1)]; used for multi-way choices (switches, virtual calls). *)
val hash_float : int -> int -> float
