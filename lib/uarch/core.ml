type config = {
  l1i : Cache.params;
  l2 : Cache.params;
  l3 : Cache.params;
  itlb : Tlb.params;
  btb : Btb.params;
  dsb : Dsb.params;
  hugepages : bool;
  page_scale_bits : int;
}

let default_config =
  {
    l1i = Cache.l1i_params;
    l2 = Cache.l2_params;
    l3 = { Cache.sets = 8192; ways = 16; line_bytes = 64 };
    itlb = Tlb.skylake;
    btb = Btb.skylake;
    dsb = Dsb.skylake;
    hugepages = false;
    page_scale_bits = 0;
  }

type counters = {
  mutable instructions : int;
  mutable fetch_events : int;
  mutable i1_l1i_miss : int;
  mutable i2_l2_code_miss : int;
  mutable i3_l3_code_miss : int;
  mutable t1_itlb_miss : int;
  mutable t2_itlb_stall_miss : int;
  mutable b1_baclears : int;
  mutable b2_taken_branches : int;
  mutable dsb_misses : int;
  mutable cond_branches : int;
  mutable dmisses : int;  (** uncovered delinquent-load misses *)
  mutable cycles : float;
}

type t = {
  l1i : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  itlb : Tlb.t;
  btb : Btb.t;
  dsb : Dsb.t;
  c : counters;
  cyc : float array;
      (* Hot cycle accumulator. [counters] is a mixed record, so every
         store to [c.cycles] boxes a float; a one-element float array
         stores unboxed. Synced into [c.cycles] on every read. *)
  hugepages : bool;
  mutable last_page : int;
  mutable last_line : int;  (** Last 64B line the previous fetch touched. *)
}

(* Penalty model (cycles). Values are in the range hardware manuals and
   top-down analyses quote; only ratios matter for the benches. *)
let decode_width = 4.0



let l2_hit_penalty = 12.0

let l3_hit_penalty = 40.0

let dram_penalty = 120.0

let itlb_walk_penalty_4k = 25.0

let itlb_walk_penalty_2m = 18.0

let resteer_penalty = 10.0

let taken_branch_bubble = 1.0

let dsb_switch_penalty = 2.0

let dmiss_penalty = 80.0 (* average L3/DRAM data stall *)

let create (config : config) =
  let d = config.dsb in
  (* The DSB's line entries stand for a line's two 32B windows only
     when those windows sit in two different sets. *)
  if d.Dsb.ways >= 1 && d.windows / d.ways * d.window_bytes < 64 then
    invalid_arg "Core.create: a line's DSB windows share a set";
  let dsb = Dsb.create d in
  {
    l1i = Cache.create config.l1i;
    l2 = Cache.create config.l2;
    l3 = Cache.create config.l3;
    itlb =
      Tlb.create ~page_scale_bits:config.page_scale_bits config.itlb
        ~hugepages:config.hugepages;
    btb = Btb.create config.btb;
    dsb;
    hugepages = config.hugepages;
    c =
      {
        instructions = 0;
        fetch_events = 0;
        i1_l1i_miss = 0;
        i2_l2_code_miss = 0;
        i3_l3_code_miss = 0;
        t1_itlb_miss = 0;
        t2_itlb_stall_miss = 0;
        b1_baclears = 0;
        b2_taken_branches = 0;
        dsb_misses = 0;
        cond_branches = 0;
        dmisses = 0;
        cycles = 0.0;
      };
    cyc = [| 0.0 |];
    last_page = -1;
    last_line = -1;
  }

let[@inline] add_cycles t x = Array.unsafe_set t.cyc 0 (Array.unsafe_get t.cyc 0 +. x)

let sync t = t.c.cycles <- Array.unsafe_get t.cyc 0

let counters t =
  sync t;
  t.c

let cycles t = Array.unsafe_get t.cyc 0

let fetch t addr len insts =
  let c = t.c in
  c.fetch_events <- c.fetch_events + 1;
  let insts = if insts < 1 then 1 else insts in
  c.instructions <- c.instructions + insts;
  add_cycles t (float_of_int insts /. decode_width);
  (* Touch every 64B line in [addr, addr+len), except a first line that
     the previous fetch touched last: only [fetch] touches L1i, iTLB
     and DSB, so that line is still the most recent way in L1i and in
     the DSB, and its page is [last_page]. Probing it again would hit
     everywhere and change no state. *)
  let first_line = addr lsr 6 and last_line = (addr + len - 1) lsr 6 in
  let start = if first_line = t.last_line then first_line + 1 else first_line in
  if last_line >= first_line then t.last_line <- last_line;
  for ln = start to last_line do
    let a = ln lsl 6 in
    let l1_hit = Cache.access t.l1i a in
    (* iTLB lookup per page transition. *)
    let pg = Tlb.page t.itlb a in
    if pg <> t.last_page then begin
      t.last_page <- pg;
      if not (Tlb.access t.itlb a) then begin
        c.t1_itlb_miss <- c.t1_itlb_miss + 1;
        if not l1_hit then c.t2_itlb_stall_miss <- c.t2_itlb_stall_miss + 1;
        add_cycles t (if t.hugepages then itlb_walk_penalty_2m else itlb_walk_penalty_4k)
      end
    end;
    if not l1_hit then begin
      c.i1_l1i_miss <- c.i1_l1i_miss + 1;
      if Cache.access t.l2 a then add_cycles t l2_hit_penalty
      else begin
        c.i2_l2_code_miss <- c.i2_l2_code_miss + 1;
        if Cache.access t.l3 a then add_cycles t l3_hit_penalty
        else begin
          c.i3_l3_code_miss <- c.i3_l3_code_miss + 1;
          add_cycles t dram_penalty
        end
      end
    end;
    (* The line's two 32B windows, [a] and [a + 32], sit in an even
       DSB set and the odd set after it. Only this probe reaches the
       DSB, so both sets see the same lines in the same order and
       their LRU states move in lockstep: the second window hits
       exactly when the first did. One line entry stands for both
       ({!Dsb}). A miss is two window misses, and the penalty is added
       twice, as two window probes would, so [cycles] rounds alike. *)
    if not (Dsb.access t.dsb a) then begin
      c.dsb_misses <- c.dsb_misses + 2;
      add_cycles t dsb_switch_penalty;
      add_cycles t dsb_switch_penalty
    end
  done

(* [kindc] is the dense Event.kind_to_int code (0 = Cond). *)
let[@inline] branch_coded t ~src ~kindc ~taken =
  let c = t.c in
  if kindc = 0 then c.cond_branches <- c.cond_branches + 1;
  if taken then begin
    c.b2_taken_branches <- c.b2_taken_branches + 1;
    add_cycles t taken_branch_bubble;
    if Btb.taken t.btb ~src then begin
      c.b1_baclears <- c.b1_baclears + 1;
      add_cycles t resteer_penalty
    end
  end

let branch t ~src ~dst:_ ~kind ~taken =
  branch_coded t ~src ~kindc:(Exec.Event.kind_to_int kind) ~taken

let dmiss t =
  let c = t.c in
  c.dmisses <- c.dmisses + 1;
  add_cycles t dmiss_penalty

let sink t =
  {
    Exec.Event.on_fetch = (fun addr len insts -> fetch t addr len insts);
    on_branch = (fun ~src ~dst ~kind ~taken -> branch t ~src ~dst ~kind ~taken);
    on_dmiss = (fun ~src:_ -> dmiss t);
    on_request = (fun _ -> ());
  }

(* Direct tape drain: one monomorphic dispatch loop, no closure hops,
   no variant or float boxing per event. *)
let consume t (tape : Exec.Event.tape) =
  let tags = tape.Exec.Event.tags
  and a = tape.Exec.Event.a
  and b = tape.Exec.Event.b
  and c = tape.Exec.Event.c in
  for i = 0 to tape.Exec.Event.len - 1 do
    match Bytes.unsafe_get tags i with
    | '\000' ->
      fetch t (Array.unsafe_get a i) (Array.unsafe_get b i) (Array.unsafe_get c i)
    | '\001' ->
      let meta = Array.unsafe_get c i in
      branch_coded t ~src:(Array.unsafe_get a i) ~kindc:(meta lsr 1)
        ~taken:(meta land 1 = 1)
    | '\002' -> dmiss t
    | _ -> ()
  done

let reset t =
  Cache.reset t.l1i;
  Cache.reset t.l2;
  Cache.reset t.l3;
  Tlb.reset t.itlb;
  Btb.reset t.btb;
  Dsb.reset t.dsb;
  t.last_page <- -1;
  t.last_line <- -1;
  t.cyc.(0) <- 0.0;
  let c = t.c in
  c.instructions <- 0;
  c.fetch_events <- 0;
  c.i1_l1i_miss <- 0;
  c.i2_l2_code_miss <- 0;
  c.i3_l3_code_miss <- 0;
  c.t1_itlb_miss <- 0;
  c.t2_itlb_stall_miss <- 0;
  c.b1_baclears <- 0;
  c.b2_taken_branches <- 0;
  c.dsb_misses <- 0;
  c.cond_branches <- 0;
  c.dmisses <- 0;
  c.cycles <- 0.0

let counters_assoc (c : counters) =
  [
    ("instructions", c.instructions);
    ("fetch_events", c.fetch_events);
    ("i1_l1i_miss", c.i1_l1i_miss);
    ("i2_l2_code_miss", c.i2_l2_code_miss);
    ("i3_l3_code_miss", c.i3_l3_code_miss);
    ("t1_itlb_miss", c.t1_itlb_miss);
    ("t2_itlb_stall_miss", c.t2_itlb_stall_miss);
    ("b1_baclears", c.b1_baclears);
    ("b2_taken_branches", c.b2_taken_branches);
    ("dsb_misses", c.dsb_misses);
    ("cond_branches", c.cond_branches);
    ("dmisses", c.dmisses);
  ]

let publish_with ?recorder ~name t =
  let r = match recorder with Some r -> r | None -> Obs.Recorder.global in
  Obs.Recorder.with_span r ("uarch:publish:" ^ name) @@ fun () ->
  sync t;
  let c = t.c in
  List.iter
    (fun (counter, v) ->
      Obs.Recorder.add_counter r (Printf.sprintf "uarch.%s.%s" name counter) v)
    (counters_assoc c);
  Obs.Recorder.set_gauge r (Printf.sprintf "uarch.%s.cycles" name) c.cycles

let publish ?ctx ~name t =
  publish_with ?recorder:(Option.map (fun c -> c.Support.Ctx.recorder) ctx) ~name t
