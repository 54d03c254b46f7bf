(** `perf annotate`-style heat listing over the final layout.

    Projects an LBR profile (collected on the inspected binary) onto the
    resolved block layout: per-block execution counts from the
    sequential ranges, taken-branch and fall-through exit weights,
    and per-block mispredict rates from the records' MISPRED bits.

    Functions are reported hottest-first; blocks in final address
    order, cold fragments marked. The JSON form is deterministic —
    byte-identical across runs at a fixed seed — and round-trips
    through {!Obs.Json.parse}. *)

type block_row = {
  bb : int;
  addr : int;
  size : int;
  section : string;
  fragment : Resolve.fragment;
  count : int;  (** Execution count recovered from LBR ranges. *)
  taken_out : int;  (** Weighted taken-branch records leaving the block. *)
  fallthrough_out : int;  (** Weighted sequential exits into the next block. *)
  mispredicted : int;  (** Taken records leaving the block with MISPRED set. *)
}

type func_report = {
  fname : string;
  samples : int;  (** Sample mass attributed to the function. *)
  code_bytes : int;
  cold_bytes : int;
  rows : block_row list;  (** Final address order, all fragments. *)
}

type t = {
  binary_name : string;
  num_samples : int;
  num_records : int;
  total_mispredicts : int;
  functions : func_report list;  (** Sample mass desc, then name. *)
}

(** [analyze ~binary ~profile] projects [profile] onto [binary]'s
    layout. Only functions that received samples are listed. *)
val analyze : binary:Linker.Binary.t -> profile:Perfmon.Lbr.profile -> t

(** [to_text ?top ?func t] renders the listing; [top] bounds the number
    of functions (default 10), [func] selects one by name. *)
val to_text : ?top:int -> ?func:string -> t -> string

(** [to_json ?func t] is the full record with a stable field order. *)
val to_json : ?func:string -> t -> Obs.Json.t
