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
    {!iter_pairs}/{!add_pair} to consume or build them. *)

type config = { period : int  (** Taken branches between samples. *) }

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

val iter_pairs : (src:int -> dst:int -> int -> unit) -> Support.Itab.t -> unit
(** [iter_pairs f tbl] applies [f ~src ~dst count] to every pair. *)

(** {1 Collection} *)

type collector
(** Mutable collector state: the LBR ring, the predictor tables and the
    target profile. *)

val collector_state : config -> profile -> collector

val consume : collector -> Exec.Event.tape -> unit
(** [consume c tape] feeds one tape's branch events to the collector, in
    emission order: the drain to pass to {!Exec.Interp.run}. *)

(** {1 Aggregates} *)

(** [raw_bytes p] models the on-disk [perf.data] size: every sample
    carries the full 32-record LBR buffer (24 B per record + header). *)
val raw_bytes : profile -> int

(** [distinct_edges p] counts distinct aggregated pairs (memory driver
    for profile conversion). *)
val distinct_edges : profile -> int

(** [mispredict_total p] sums all mispredicted records. *)
val mispredict_total : profile -> int

(** [mispredict_count p ~src ~dst] is the number of sampled records of
    the (src, dst) pair whose MISPRED bit was set (0 when unseen). *)
val mispredict_count : profile -> src:int -> dst:int -> int
