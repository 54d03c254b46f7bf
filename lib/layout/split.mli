(** Hot/cold function splitting (paper §4.6). Two extraction
    mechanisms are modelled:

    - {b Basic block sections} (Propeller): the cold blocks move to a
      [.cold] cluster at zero code cost, so *every* function with cold
      blocks can be split — no profitability heuristic needed. Its hot
      set is a function's sampled blocks plus its entry
      ([Propeller.Dcfg.hot_ranks]).
    - {b Call-based extraction} (pre-Propeller LLVM machine function
      splitter, Fig 2 centre): reaching the cold part costs a call-like
      trampoline, so splitting only pays off beyond a size threshold —
      the heuristic the paper says bb sections eliminate. *)

(** [call_split_profitable ~cold_bytes ~entry_count ~cold_entry_count]
    implements the call-based splitter's gate: the cold region must be
    big enough to amortise the ~16-byte trampoline and must be entered
    rarely relative to the function (cold extraction via call costs a
    call + spill at each entry, Fig 2). *)
val call_split_profitable : cold_bytes:int -> entry_count:float -> cold_entry_count:float -> bool
