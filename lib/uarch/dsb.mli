(** Decoded stream buffer (uop cache) model.

    The DSB caches decoded uops keyed by 32-byte code windows; it is
    sensitive to code alignment and to the number of distinct windows
    the front end touches. Layout changes that pack hot code tightly
    usually help large applications but can *increase* DSB misses on
    small programs whose working set already fits — the effect the paper
    reports on SPEC (§5.4).

    The front end fetches whole 64-byte lines and probes both of a
    line's windows, one after the other, and nothing else probes the
    DSB. So one entry per line stands for both windows, exactly. With
    [S = windows / ways] sets (a power of two, at least 2), line [L]'s
    windows [2L] and [2L + 1] map to sets [2L mod S] and
    [2L mod S + 1]: an even set and the odd set after it. Both sets see
    exactly the lines [L ≡ j (mod S/2)], in the same order and with
    distinct tags, so their LRU states move in lockstep and the second
    window hits exactly when the first did. The pair of sets is
    therefore one LRU set of [ways] lines over 64-byte lines, and the
    model keeps [S / 2] such sets. A miss is a miss of both windows.

    A model with per-window state (say, a uop capacity per window)
    would break the lockstep, and must then give each line entry
    per-window state. *)

type params = { windows : int; ways : int; window_bytes : int }

val skylake : params

type t

(** [create p] builds an empty DSB: [p.windows / p.ways / 2] sets of
    [p.ways] 64-byte lines. Raises [Invalid_argument] unless
    [p.ways >= 1], [p.windows] is a power-of-two multiple of [p.ways]
    of at least two sets, and [p.window_bytes = 32] (the front end
    probes a line's windows at its start and 32 bytes in). *)
val create : params -> t

(** [access t addr] touches both 32-byte windows of the 64-byte line
    containing [addr]; [true] when both hit, [false] when both miss
    (they never differ). *)
val access : t -> int -> bool

