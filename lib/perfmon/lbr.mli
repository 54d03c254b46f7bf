(** Last Branch Record sampling (paper §3.3; Linux perf stand-in).

    Intel LBR hardware keeps the last 32 retired taken branches as
    (source, destination) address pairs. Sampling captures this buffer
    every [period] taken branches. Two aggregates are kept:

    - {b branch counts}: how often each (src, dst) pair was observed —
      the taken edges of the dynamic CFG;
    - {b range counts}: for consecutive records, execution between one
      record's destination and the next record's source was sequential;
      these [(range_start, range_end)] pairs recover fall-through
      frequencies without disassembly.

    The aggregation is exactly what [perf script ++ create_llvm_prof]
    would produce and is all Phase 3 consumes.

    Tables are flat {!Support.Itab} maps over packed
    [(src lsl 31) lor dst] keys ({!Support.Packed}) — one immediate int
    per pair, so steady-state collection allocates nothing. Use
    {!iter_pairs}/{!find_pair}/{!add_pair} to consume or build them. *)

type config = {
  period : int;  (** Taken branches between samples. *)
  buffer_depth : int;  (** LBR depth (32 on Intel). *)
}

val default_config : config

type profile = {
  branches : Support.Itab.t;  (** packed (src, dst) -> count *)
  ranges : Support.Itab.t;  (** packed (start, end) -> count *)
  mispredicts : Support.Itab.t;
      (** packed (src, dst) -> count of records whose MISPRED bit was
          set. Hardware LBR stores one mispredict bit per record; the
          collector models it with a 2-bit saturating direction
          predictor per conditional-branch address and a last-target
          predictor per indirect-jump address. Unconditional direct
          transfers never mispredict. *)
  mutable num_samples : int;
  mutable num_records : int;
}

val create_profile : unit -> profile

(** {1 Pair-table helpers}

    The shared vocabulary for every profile consumer: address pairs in,
    packed keys handled internally. *)

val add_pair : Support.Itab.t -> src:int -> dst:int -> int -> unit
(** [add_pair tbl ~src ~dst n] bumps the pair's count by [n]. Raises
    [Invalid_argument] when an address exceeds {!Support.Packed.max_addr}. *)

val find_pair : Support.Itab.t -> src:int -> dst:int -> int
(** The pair's count, or [0] when absent (or unpackable). *)

val iter_pairs : (src:int -> dst:int -> int -> unit) -> Support.Itab.t -> unit
(** [iter_pairs f tbl] applies [f ~src ~dst count] to every pair. *)

val pair_total : Support.Itab.t -> int
(** Sum of all counts in a pair table. *)

(** {1 Collection} *)

type collector
(** Mutable collector state: the LBR ring, the predictor tables and the
    target profile. *)

val collector_state : config -> profile -> collector

val consume : collector -> Exec.Event.tape -> unit
(** [consume c tape] drains a flat event tape directly — the fast path
    to pair with {!Exec.Interp.run_tape}. Observationally identical to
    feeding the same events through [collector config profile]. *)

val collector : config -> profile -> Exec.Event.sink
(** [collector config profile] is a closure sink over a fresh
    {!collector_state} (the adapter for low-rate compositions). *)

(** {1 Aggregates} *)

(** [raw_bytes p] models the on-disk [perf.data] size: every sample
    carries the full LBR buffer (24 B per record + header). *)
val raw_bytes : config -> profile -> int

(** [distinct_edges p] counts distinct aggregated pairs (memory driver
    for profile conversion). *)
val distinct_edges : profile -> int

(** [branch_total p] sums the counts of all aggregated taken-branch
    records (the denominator of profile-mismatch rates). *)
val branch_total : profile -> int

(** [mispredict_total p] sums all mispredicted records. *)
val mispredict_total : profile -> int

(** [mispredict_count p ~src ~dst] is the number of sampled records of
    the (src, dst) pair whose MISPRED bit was set (0 when unseen). *)
val mispredict_count : profile -> src:int -> dst:int -> int

(** [mispredict_rate p ~src ~dst] is the per-branch mispredict rate:
    mispredicted records of the pair over all its records. 0 for pairs
    never sampled (annotation views render those as clean, which is the
    perf-annotate convention). *)
val mispredict_rate : profile -> src:int -> dst:int -> float

(** [merge a b] accumulates profile [b] into [a] (multi-shard collection,
    as production profiles arrive from many machines). *)
val merge : profile -> profile -> unit
