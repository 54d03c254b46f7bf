open Testutil

(* --- Cache -------------------------------------------------------- *)

let test_cache_basic_hit_miss () =
  let c = Uarch.Cache.create Uarch.Cache.l1i_params in
  check tb "cold miss" false (Uarch.Cache.access c 0x1000);
  check tb "warm hit" true (Uarch.Cache.access c 0x1000);
  check tb "same line hit" true (Uarch.Cache.access c 0x103f);
  check tb "next line miss" false (Uarch.Cache.access c 0x1040)

let test_cache_capacity () =
  (* 32 KiB L1i: a 16 KiB loop fits, a 1 MiB loop thrashes. *)
  let sweep bytes =
    let c = Uarch.Cache.create Uarch.Cache.l1i_params in
    let misses = ref 0 in
    for _ = 1 to 3 do
      let a = ref 0 in
      while !a < bytes do
        if not (Uarch.Cache.access c !a) then incr misses;
        a := !a + 64
      done
    done;
    !misses
  in
  let small = sweep (16 * 1024) in
  let large = sweep (1024 * 1024) in
  (* Small working set: only compulsory misses on the first pass. *)
  check ti "resident set hits" (16 * 1024 / 64) small;
  check tb "thrashing misses every pass" true (large > 3 * (1024 * 1024 / 64) - 100)

let test_cache_lru () =
  (* Direct-mapped-ish check: fill one set beyond its ways and confirm
     the least recently used line is the victim. *)
  let p = { Uarch.Cache.sets = 2; ways = 2; line_bytes = 64 } in
  let c = Uarch.Cache.create p in
  (* Set 0 lines: 0, 128, 256 (every 2*64 maps to set 0). *)
  ignore (Uarch.Cache.access c 0);
  ignore (Uarch.Cache.access c 128);
  ignore (Uarch.Cache.access c 0);
  (* touching 0 makes 128 the LRU *)
  ignore (Uarch.Cache.access c 256);
  (* evicts 128 *)
  check tb "0 survives" true (Uarch.Cache.access c 0);
  check tb "128 evicted" false (Uarch.Cache.access c 128)

(* Every geometry no cache can model is refused when it is built, not
   read out of bounds or modelled as another geometry on first use. *)
let test_bad_geometries_rejected () =
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let cache sets ways line_bytes () =
    ignore (Uarch.Cache.create { Uarch.Cache.sets; ways; line_bytes } : Uarch.Cache.t)
  in
  rejects "cache ways=0" (cache 4 0 64);
  rejects "cache sets=0" (cache 0 4 64);
  rejects "cache sets=3" (cache 3 4 64);
  rejects "cache line_bytes=48" (cache 4 4 48);
  rejects "cache line_bytes=0" (cache 4 4 0);
  let tlb p ~hugepages () =
    ignore (Uarch.Tlb.create ~page_scale_bits:0 p ~hugepages : Uarch.Tlb.t)
  in
  rejects "tlb entries_2m=0" (tlb { Uarch.Tlb.skylake with entries_2m = 0 } ~hugepages:true);
  rejects "tlb ways_4k=0" (tlb { Uarch.Tlb.skylake with ways_4k = 0 } ~hugepages:false);
  rejects "tlb entries_4k=100" (tlb { Uarch.Tlb.skylake with entries_4k = 100 } ~hugepages:false);
  let btb entries ways () = ignore (Uarch.Btb.create { Uarch.Btb.entries; ways } : Uarch.Btb.t) in
  rejects "btb entries=2 ways=4" (btb 2 4);
  rejects "btb ways=0" (btb 4096 0);
  let dsb p () = ignore (Uarch.Dsb.create p : Uarch.Dsb.t) in
  rejects "dsb ways=0" (dsb { Uarch.Dsb.skylake with ways = 0 });
  rejects "dsb window_bytes=48" (dsb { Uarch.Dsb.skylake with window_bytes = 48 });
  rejects "dsb window_bytes=16" (dsb { Uarch.Dsb.skylake with window_bytes = 16 });
  rejects "dsb window_bytes=64" (dsb { Uarch.Dsb.skylake with window_bytes = 64 });
  rejects "dsb one set" (dsb { Uarch.Dsb.windows = 8; ways = 8; window_bytes = 32 });
  rejects "dsb sets=3" (dsb { Uarch.Dsb.windows = 6; ways = 2; window_bytes = 32 });
  let core config () = ignore (Uarch.Core.create config : Uarch.Core.t) in
  let d = Uarch.Core.default_config in
  rejects "core dsb ways=0" (core { d with dsb = { d.dsb with ways = 0 } });
  rejects "core btb ways=0" (core { d with btb = { d.btb with ways = 0 } });
  rejects "core l3 sets=0" (core { d with l3 = { d.l3 with sets = 0 } });
  rejects "core itlb entries_2m=0"
    (core { d with hugepages = true; itlb = { d.itlb with entries_2m = 0 } })

(* --- TLB ---------------------------------------------------------- *)

let test_tlb_4k () =
  let t = Uarch.Tlb.create ~page_scale_bits:0 Uarch.Tlb.skylake ~hugepages:false in
  check tb "cold miss" false (Uarch.Tlb.access t 0x400000);
  check tb "same page hit" true (Uarch.Tlb.access t 0x400fff);
  check tb "next page miss" false (Uarch.Tlb.access t 0x401000)

let test_tlb_2m_reach () =
  (* 8 x 2M entries cover 16 MB; with 4K pages, 128 entries cover only
     512 KB — the hugepage effect of 5.5. *)
  let code_bytes = 4 * 1024 * 1024 in
  let sweep t =
    let misses = ref 0 in
    for _ = 1 to 3 do
      let a = ref 0 in
      while !a < code_bytes do
        if not (Uarch.Tlb.access t !a) then incr misses;
        a := !a + 4096
      done
    done;
    !misses
  in
  let tlb ~hugepages = Uarch.Tlb.create ~page_scale_bits:0 Uarch.Tlb.skylake ~hugepages in
  let small_pages = sweep (tlb ~hugepages:false) in
  let huge_pages = sweep (tlb ~hugepages:true) in
  check tb "hugepages dramatically fewer misses" true (huge_pages * 10 < small_pages)

let test_tlb_page_scaling () =
  (* Shrinking pages by 2^4 makes a working set that fit before now
     overflow the same entry count. *)
  let code = 400 * 1024 in
  let sweep t =
    let misses = ref 0 in
    for _ = 1 to 2 do
      let a = ref 0 in
      while !a < code do
        if not (Uarch.Tlb.access t !a) then incr misses;
        a := !a + 512
      done
    done;
    !misses
  in
  let tlb page_scale_bits = Uarch.Tlb.create ~page_scale_bits Uarch.Tlb.skylake ~hugepages:false in
  let normal = sweep (tlb 0) in
  let scaled = sweep (tlb 4) in
  check tb "scaled pages raise pressure" true (scaled > 2 * normal)

(* --- BTB ---------------------------------------------------------- *)

let test_btb_resteer_once () =
  let b = Uarch.Btb.create Uarch.Btb.skylake in
  check tb "first taken resteers" true (Uarch.Btb.taken b ~src:0x1234);
  check tb "tracked afterwards" false (Uarch.Btb.taken b ~src:0x1234)

let test_btb_capacity_pressure () =
  let b = Uarch.Btb.create { Uarch.Btb.entries = 16; ways = 2 } in
  (* 64 distinct branches > 16 entries: revisiting them must resteer. *)
  for i = 0 to 63 do
    ignore (Uarch.Btb.taken b ~src:(i * 8))
  done;
  let resteers = ref 0 in
  for i = 0 to 63 do
    if Uarch.Btb.taken b ~src:(i * 8) then incr resteers
  done;
  check tb "pressure causes resteers" true (!resteers > 32)

(* --- Core counters ------------------------------------------------ *)

let core_run ?(hugepages = false) program binary requests =
  let image = Exec.Image.build program binary in
  let core = Uarch.Core.create { Uarch.Core.default_config with hugepages } in
  let stats =
    Exec.Interp.run ~ctx:(ctx ())
      image { Exec.Interp.default_config with requests } (Uarch.Core.consume core)
  in
  (stats, Uarch.Core.counters core)

let test_core_counter_sanity () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let stats, c = core_run program binary 30 in
  check tb "instructions counted" true (c.instructions > 0);
  check tb "cycles accumulate" true (c.cycles > 0.0);
  (* Miss hierarchies are ordered. *)
  check tb "L2 misses <= L1 misses" true (c.i2_l2_code_miss <= c.i1_l1i_miss);
  check tb "L3 misses <= L2 misses" true (c.i3_l3_code_miss <= c.i2_l2_code_miss);
  check tb "stall iTLB <= all iTLB" true (c.t2_itlb_stall_miss <= c.t1_itlb_miss);
  check tb "resteers <= taken" true (c.b1_baclears <= c.b2_taken_branches);
  (* The core's taken-branch counter agrees with the interpreter. *)
  check ti "B2 = taken" (taken_branches stats) c.b2_taken_branches

let test_core_counters_deterministic () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let _, c1 = core_run program binary 20 in
  let _, c2 = core_run program binary 20 in
  check tb "same counters" true (c1 = c2)

let test_core_hugepage_itlb () =
  let _, program = medium_program () in
  let _, { Linker.Link.binary; _ } =
    compile_and_link ~link:{ Linker.Link.default_options with text_align = 2 * 1024 * 1024 } program
  in
  let _, c4k = core_run ~hugepages:false program binary 30 in
  let _, c2m = core_run ~hugepages:true program binary 30 in
  check tb "hugepages reduce iTLB misses" true (c2m.t1_itlb_miss <= c4k.t1_itlb_miss)

(* --- Reference model ---------------------------------------------- *)

(* A stamp-LRU cache, the replacement rule [Uarch.Cache] implemented
   before it kept move-to-front order: every way remembers when it was
   last used, and a miss fills the first empty way, else evicts the
   way with the smallest stamp. Kept here only as the oracle. *)
module Ref_cache = struct
  type t = {
    ways : int;
    tags : int array;
    lru : int array;
    mutable clock : int;
    shift : int;
    mask : int;
  }

  let create (p : Uarch.Cache.params) =
    let rec log2 v = if v <= 1 then 0 else 1 + log2 (v lsr 1) in
    {
      ways = p.ways;
      tags = Array.make (p.sets * p.ways) (-1);
      lru = Array.make (p.sets * p.ways) 0;
      clock = 0;
      shift = log2 p.line_bytes;
      mask = p.sets - 1;
    }

  let access t addr =
    let ln = addr lsr t.shift in
    let base = (ln land t.mask) * t.ways in
    t.clock <- t.clock + 1;
    let hit = ref (-1) in
    for w = t.ways - 1 downto 0 do
      if t.tags.(base + w) = ln then hit := w
    done;
    if !hit >= 0 then begin
      t.lru.(base + !hit) <- t.clock;
      true
    end
    else begin
      let victim = ref 0 and oldest = ref max_int in
      for w = 0 to t.ways - 1 do
        if t.tags.(base + w) = -1 && !oldest > -1 then begin
          victim := w;
          oldest := -1
        end
        else if !oldest > -1 && t.lru.(base + w) < !oldest then begin
          victim := w;
          oldest := t.lru.(base + w)
        end
      done;
      t.tags.(base + !victim) <- ln;
      t.lru.(base + !victim) <- t.clock;
      false
    end
end

let pow2 k = 1 lsl k

(* A geometry within sets 1-1024, ways 1-16, line bytes 1-64, and a
   stream of probes. Half the probes fall anywhere in twice the cache's
   capacity: dense in a few sets, sparse in many, where most sets see
   one line. The other half land in up to
   four hot sets, with tags enough to hit and to evict there, so the
   first set to need a second line often does so mid-stream. *)
let geometry_stream_gen =
  QCheck.Gen.(
    let* sets = map pow2 (int_range 0 10) in
    let* ways = int_range 1 16 in
    let* line_bytes = map pow2 (int_range 0 6) in
    let* hot = array_size (int_range 1 4) (int_range 0 (sets - 1)) in
    let op =
      frequency
        [
          (1, int_range 0 ((2 * sets * ways * line_bytes) - 1));
          ( 1,
            let* set = oneofa hot
            and* tag = int_range 0 ((2 * ways) - 1)
            and* off = int_range 0 (line_bytes - 1) in
            return ((((tag * sets) + set) * line_bytes) + off) );
        ]
    in
    let* ops = list_size (int_range 1 400) op in
    return ({ Uarch.Cache.sets; ways; line_bytes }, ops))

let show_geometry (p : Uarch.Cache.params) ops =
  Printf.sprintf "sets=%d ways=%d line=%d ops=[%s]" p.sets p.ways p.line_bytes
    (String.concat ";"
       (List.map string_of_int ops))

let cache_equals_reference_law =
  QCheck.Test.make ~count:500 ~name:"cache hits equal the stamp-LRU reference"
    (QCheck.make ~print:(fun (p, ops) -> show_geometry p ops) geometry_stream_gen)
    (fun (p, ops) ->
      let c = Uarch.Cache.create p and r = Ref_cache.create p in
      List.for_all (fun a -> Uarch.Cache.access c a = Ref_cache.access r a) ops)

(* The 2 MiB side is one fully associative set of [entries_2m] ways
   over 2 MiB pages, shrunk by [page_scale_bits] and clamped at
   16 KiB; the 4 KiB side is clamped at 512 B. *)
let tlb_equals_reference_law =
  let gen =
    QCheck.Gen.(
      let* hugepages = bool in
      let* entries_2m = int_range 1 16 in
      let* page_scale_bits = int_range 0 9 in
      let* addrs = list_size (int_range 1 400) (int_range 0 ((1 lsl 22) - 1)) in
      return (hugepages, entries_2m, page_scale_bits, addrs))
  in
  let print (h, e, b, addrs) =
    Printf.sprintf "hugepages=%b entries_2m=%d page_scale_bits=%d addrs=%d" h e b
      (List.length addrs)
  in
  QCheck.Test.make ~count:300 ~name:"tlb hits equal the stamp-LRU reference"
    (QCheck.make ~print gen)
    (fun (hugepages, entries_2m, page_scale_bits, addrs) ->
      let p = { Uarch.Tlb.skylake with entries_2m } in
      let t = Uarch.Tlb.create ~page_scale_bits p ~hugepages in
      let r =
        Ref_cache.create
          (if hugepages then
             {
               Uarch.Cache.sets = 1;
               ways = entries_2m;
               line_bytes = pow2 (max 14 (21 - page_scale_bits));
             }
           else
             {
               Uarch.Cache.sets = p.entries_4k / p.ways_4k;
               ways = p.ways_4k;
               line_bytes = pow2 (max 9 (12 - page_scale_bits));
             })
      in
      List.for_all (fun a -> Uarch.Tlb.access t a = Ref_cache.access r a) addrs)

(* The front end probes a line's two 32-byte windows back to back, and
   nothing else probes the DSB. Then the windows' two sets move in
   lockstep, so the second window hits exactly when the first did, and
   one probe of the line's entry hits exactly when both window probes
   of a stamp-LRU cache over the 32-byte windows hit. Half the lines
   fall anywhere in twice the DSB's capacity; the other half land in up
   to three hot line sets, with tags enough to hit and to evict
   there. *)
let dsb_equals_two_windows_law =
  let gen =
    QCheck.Gen.(
      let* sets = map pow2 (int_range 1 7) in
      let* ways = int_range 1 8 in
      let line_sets = sets / 2 in
      let* hot = array_size (int_range 1 3) (int_range 0 (line_sets - 1)) in
      let op =
        frequency
          [
            (1, int_range 0 ((sets * ways) - 1));
            ( 1,
              let* set = oneofa hot and* tag = int_range 0 ((2 * ways) - 1) in
              return ((tag * line_sets) + set) );
          ]
      in
      let* ops = list_size (int_range 1 400) op in
      return (sets, ways, ops))
  in
  let print (sets, ways, ops) =
    Printf.sprintf "sets=%d ways=%d ops=[%s]" sets ways
      (String.concat ";"
         (List.map string_of_int ops))
  in
  QCheck.Test.make ~count:500 ~name:"dsb line hits equal both window hits of the reference"
    (QCheck.make ~print gen)
    (fun (sets, ways, ops) ->
      let d = Uarch.Dsb.create { Uarch.Dsb.windows = sets * ways; ways; window_bytes = 32 } in
      let r = Ref_cache.create { Uarch.Cache.sets; ways; line_bytes = 32 } in
      List.for_all
        (fun l ->
          let first = Ref_cache.access r (l * 64) in
          let second = Ref_cache.access r ((l * 64) + 32) in
          first = second && Uarch.Dsb.access d (l * 64) = (first && second))
        ops)

(* A small front end, so that short random tapes miss in every level. *)
let small_config ~hugepages ~page_scale_bits =
  {
    Uarch.Core.l1i = { Uarch.Cache.sets = 4; ways = 2; line_bytes = 64 };
    l2 = { Uarch.Cache.sets = 8; ways = 2; line_bytes = 64 };
    l3 = { Uarch.Cache.sets = 16; ways = 2; line_bytes = 64 };
    itlb = { Uarch.Tlb.entries_4k = 8; ways_4k = 2; entries_2m = 2 };
    btb = { Uarch.Btb.entries = 16; ways = 2 };
    dsb = { Uarch.Dsb.windows = 8; ways = 2; window_bytes = 32 };
    hugepages;
    page_scale_bits;
  }

(* [fetch] as the model ran it before the repeated-line shortcut and
   the DSB's line entries, over reference caches: every line of every
   fetch is probed, and so are both 32-byte DSB windows of each line.
   It counts the integer counters only. *)
module Ref_core = struct
  type t = {
    l1i : Ref_cache.t;
    l2 : Ref_cache.t;
    l3 : Ref_cache.t;
    tlb : Ref_cache.t;
    btb : Ref_cache.t;
    dsb : Ref_cache.t;
    page_bits : int;
    mutable last_page : int;
    c : Uarch.Core.counters;
  }

  let create (cfg : Uarch.Core.config) =
    let page_bits =
      if cfg.hugepages then max 14 (21 - cfg.page_scale_bits) else max 9 (12 - cfg.page_scale_bits)
    in
    let tlb_sets, tlb_ways =
      if cfg.hugepages then (1, cfg.itlb.entries_2m)
      else (cfg.itlb.entries_4k / cfg.itlb.ways_4k, cfg.itlb.ways_4k)
    in
    let ref_cache sets ways line_bytes = Ref_cache.create { Uarch.Cache.sets; ways; line_bytes } in
    {
      l1i = Ref_cache.create cfg.l1i;
      l2 = Ref_cache.create cfg.l2;
      l3 = Ref_cache.create cfg.l3;
      tlb = ref_cache tlb_sets tlb_ways (pow2 page_bits);
      btb = ref_cache (cfg.btb.entries / cfg.btb.ways) cfg.btb.ways 1;
      dsb = ref_cache (cfg.dsb.windows / cfg.dsb.ways) cfg.dsb.ways cfg.dsb.window_bytes;
      page_bits;
      last_page = -1;
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
    }

  let fetch r addr len insts =
    let c = r.c in
    c.fetch_events <- c.fetch_events + 1;
    c.instructions <- c.instructions + max 1 insts;
    for ln = addr lsr 6 to (addr + len - 1) lsr 6 do
      let a = ln lsl 6 in
      let l1_hit = Ref_cache.access r.l1i a in
      if a lsr r.page_bits <> r.last_page then begin
        r.last_page <- a lsr r.page_bits;
        if not (Ref_cache.access r.tlb a) then begin
          c.t1_itlb_miss <- c.t1_itlb_miss + 1;
          if not l1_hit then c.t2_itlb_stall_miss <- c.t2_itlb_stall_miss + 1
        end
      end;
      if not l1_hit then begin
        c.i1_l1i_miss <- c.i1_l1i_miss + 1;
        if not (Ref_cache.access r.l2 a) then begin
          c.i2_l2_code_miss <- c.i2_l2_code_miss + 1;
          if not (Ref_cache.access r.l3 a) then c.i3_l3_code_miss <- c.i3_l3_code_miss + 1
        end
      end;
      List.iter
        (fun w -> if not (Ref_cache.access r.dsb w) then c.dsb_misses <- c.dsb_misses + 1)
        [ a; a + 32 ]
    done

  let branch r ~src ~meta =
    let c = r.c in
    if meta lsr 1 = Exec.Event.kind_to_int Exec.Event.Cond then
      c.cond_branches <- c.cond_branches + 1;
    if meta land 1 = 1 then begin
      c.b2_taken_branches <- c.b2_taken_branches + 1;
      if not (Ref_cache.access r.btb src) then c.b1_baclears <- c.b1_baclears + 1
    end

  let consume r (t : Exec.Event.tape) =
    for i = 0 to t.len - 1 do
      let tag = Bytes.get t.tags i in
      if tag = Exec.Event.tag_fetch then fetch r t.a.(i) t.b.(i) t.c.(i)
      else if tag = Exec.Event.tag_branch then branch r ~src:t.a.(i) ~meta:t.c.(i)
      else if tag = Exec.Event.tag_dmiss then r.c.dmisses <- r.c.dmisses + 1
    done
end

type ev =
  | Fetch of int * int * int
  | Branch of int * int * int * bool
  | Dmiss of int
  | Request of int

(* Random events over 64 KiB of text. A fetch starts at a fresh
   address, at the end of the previous fetch (so it often begins on
   the line the previous one ended on), or inside the previous fetch's
   last line; lengths up to 600 B cross lines and, at small page
   sizes, pages. *)
let tape_gen =
  QCheck.Gen.(
    let ev prev_end =
      frequency
        [
          ( 6,
            let* start =
              frequency
                [
                  (2, int_range 0 0xffff);
                  (3, return prev_end);
                  (2, map (fun d -> max 0 (prev_end - d)) (int_range 1 63));
                ]
            in
            let* len = frequency [ (3, int_range 1 40); (2, int_range 41 600) ] in
            let* insts = int_range 0 12 in
            return (Fetch (start, len, insts)) );
          ( 4,
            let* src = int_range 0 0xffff and* dst = int_range 0 0xffff in
            let* kind = int_range 0 4 and* taken = bool in
            return (Branch (src, dst, kind, taken)) );
          (1, map (fun src -> Dmiss src) (int_range 0 0xffff));
          (1, map (fun i -> Request i) (int_range 0 100));
        ]
    in
    let* n = int_range 1 600 in
    let rec go k prev_end acc =
      if k = 0 then return (List.rev acc)
      else
        let* e = ev prev_end in
        let prev_end = match e with Fetch (s, l, _) -> s + l | _ -> prev_end in
        go (k - 1) prev_end (e :: acc)
    in
    let* evs = go n 0 [] in
    let* hugepages = bool and* page_scale_bits = int_range 0 7 in
    let* cuts = list_size (int_range 0 3) (int_range 0 n) in
    return (evs, hugepages, page_scale_bits, List.sort_uniq compare cuts))

(* [evs] written onto consecutive tapes, a new tape at each cut. *)
let tapes_of evs cuts =
  let tapes = ref [] and cur = ref (Exec.Event.create_tape ()) in
  List.iteri
    (fun i e ->
      if List.mem i cuts && !cur.len > 0 then begin
        tapes := !cur :: !tapes;
        cur := Exec.Event.create_tape ()
      end;
      let t = !cur in
      let tag, a, b, c =
        match e with
        | Fetch (s, l, n) -> (Exec.Event.tag_fetch, s, l, n)
        | Branch (s, d, k, tk) ->
          ( Exec.Event.tag_branch,
            s,
            d,
            Exec.Event.encode_branch_meta
              ~kind:Exec.Event.[| Cond; Uncond; Indirect; Call; Ret |].(k)
              ~taken:tk )
        | Dmiss s -> (Exec.Event.tag_dmiss, s, 0, 0)
        | Request r -> (Exec.Event.tag_request, r, 0, 0)
      in
      Bytes.set t.tags t.len tag;
      t.a.(t.len) <- a;
      t.b.(t.len) <- b;
      t.c.(t.len) <- c;
      t.len <- t.len + 1)
    evs;
  List.rev (!cur :: !tapes)

let consume_equals_reference_law =
  let print (evs, h, b, cuts) =
    Printf.sprintf "%d events hugepages=%b page_scale_bits=%d cuts=%d" (List.length evs) h b
      (List.length cuts)
  in
  QCheck.Test.make ~count:300 ~name:"consume = reference, on random tapes"
    (QCheck.make ~print tape_gen)
    (fun (evs, hugepages, page_scale_bits, cuts) ->
      let config = small_config ~hugepages ~page_scale_bits in
      let tapes = tapes_of evs cuts in
      let core = Uarch.Core.create config and reference = Ref_core.create config in
      List.iter (Uarch.Core.consume core) tapes;
      List.iter (Ref_core.consume reference) tapes;
      Uarch.Core.counters_assoc (Uarch.Core.counters core)
      = Uarch.Core.counters_assoc reference.c)

(* One DSB entry stands for a line's two windows only when they sit in
   two sets, so [create] refuses a DSB of one set of 32 B windows, and
   says so before [Dsb.create] rejects the geometry on its own. *)
let test_core_rejects_shared_dsb_set () =
  let dsb = { Uarch.Dsb.windows = 8; ways = 8; window_bytes = 32 } in
  Alcotest.check_raises "one-set DSB"
    (Invalid_argument "Core.create: a line's DSB windows share a set") (fun () ->
      ignore (Uarch.Core.create { Uarch.Core.default_config with dsb } : Uarch.Core.t))

(* --- Steady-state allocation ---------------------------------------- *)

(* Every tape a 505.mcf run emits, copied as it is drained. *)
let mcf_tapes =
  lazy
    (let program = Progen.Generate.program (Option.get (Progen.Suite.by_name "505.mcf")) in
     let _, { Linker.Link.binary; _ } = compile_and_link program in
     let image = Exec.Image.build program binary in
     let tapes = ref [] in
     let copy (t : Exec.Event.tape) =
       tapes :=
         {
           t with
           tags = Bytes.sub t.tags 0 t.len;
           a = Array.sub t.a 0 t.len;
           b = Array.sub t.b 0 t.len;
           c = Array.sub t.c 0 t.len;
         }
         :: !tapes
     in
     ignore
       (Exec.Interp.run ~ctx:(ctx ()) image { Exec.Interp.default_config with requests = 20 } copy
         : Exec.Interp.stats);
     Array.of_list (List.rev !tapes))

(* A fresh core costs one word per set of each structure, about 10 500
   words: the ways past a set's most recent line are built only when
   some set first needs a second line. Filling every way up front
   costs over 150 000. *)
let test_create_allocation () =
  let words =
    allocated_words (fun () ->
        ignore (Uarch.Core.create Uarch.Core.default_config : Uarch.Core.t))
  in
  if words > 16384.0 then Alcotest.failf "Core.create allocated %.0f words" words

(* Draining tapes into the model allocates nothing per event: the words
   allocated while [n] real 505.mcf tapes drain into one core stay
   under a bound that does not grow with [n]. One closure or box per
   cache probe costs thousands of words per tape. Words are counted on
   both heaps, so a large array built inside [consume] shows too. *)
let test_consume_allocation () =
  let tapes = Lazy.force mcf_tapes in
  let core = Uarch.Core.create Uarch.Core.default_config in
  let drain n =
    allocated_words (fun () ->
        for i = 0 to n - 1 do
          Uarch.Core.consume core tapes.(i mod Array.length tapes)
        done)
  in
  ignore (drain 1 : float);
  check tb "several tapes" true (Array.length tapes >= 4);
  List.iter
    (fun n ->
      let words = drain n in
      if words > 64.0 then
        Alcotest.failf "draining %d tapes allocated %.0f words" n words)
    [ 1; 4; 4 * Array.length tapes ]

(* --- Heatmap ------------------------------------------------------ *)

(* Request [r]'s fetches are those after request [r - 1] completed;
   with 20 requests in 4 columns, column [c] holds requests [5c] to
   [5c + 4], so each column's bytes equal what its requests fetched. *)
let test_heatmap_accumulates () =
  let program = call_program () in
  let _, { Linker.Link.binary; _ } = compile_and_link program in
  let lo = binary.text_start and hi = binary.text_end in
  let hm = Uarch.Heatmap.create ~lo ~hi ~rows:8 ~cols:4 ~total_requests:20 in
  let per_request = Array.make 21 0 and current = ref 0 in
  let drain (t : Exec.Event.tape) =
    Uarch.Heatmap.consume hm t;
    for i = 0 to t.len - 1 do
      let tag = Bytes.get t.tags i and addr = t.a.(i) in
      if tag = Exec.Event.tag_fetch && addr >= lo && addr < hi then
        per_request.(!current) <- per_request.(!current) + t.b.(i)
      else if tag = Exec.Event.tag_request then current := addr + 1
    done
  in
  let image = Exec.Image.build program binary in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run ~ctx:(ctx ()) image { Exec.Interp.default_config with requests = 20 } drain
  in
  check ti "every request completed" 20 !current;
  check tb "some rows touched" true (Uarch.Heatmap.occupied_rows hm > 0);
  for col = 0 to 3 do
    let got = ref 0 and want = ref 0 in
    for row = 0 to 7 do
      got := !got + Uarch.Heatmap.cell hm ~row ~col
    done;
    for r = 5 * col to (5 * col) + 4 do
      want := !want + per_request.(r)
    done;
    check tb (Printf.sprintf "column %d fetched" col) true (!want > 0);
    check ti (Printf.sprintf "column %d bytes" col) !want !got
  done;
  let rendered = Uarch.Heatmap.render hm in
  check ti "8 rows rendered" 8 (List.length (String.split_on_char '\n' rendered) - 1);
  let rejects name f =
    match f () with
    | (_ : Uarch.Heatmap.t) -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "cols=0" (fun () -> Uarch.Heatmap.create ~lo ~hi ~rows:8 ~cols:0 ~total_requests:20);
  rejects "rows=0" (fun () -> Uarch.Heatmap.create ~lo ~hi ~rows:0 ~cols:4 ~total_requests:20)

(* Fig 7's 24x72 heat map of 505.mcf's metadata image under the
   benchmark's traffic: an MD5 of every cell. *)
let test_heatmap_pinned_mcf () =
  let program, binary = Lazy.force mcf_metadata in
  let requests = mcf_spec.requests in
  let hm =
    Uarch.Heatmap.create ~lo:binary.text_start ~hi:binary.text_end ~rows:24 ~cols:72
      ~total_requests:requests
  in
  let (_ : Exec.Interp.stats) =
    Exec.Interp.run ~ctx:(ctx ()) (Exec.Image.build program binary)
      { Exec.Interp.default_config with requests }
      (Uarch.Heatmap.consume hm)
  in
  let b = Buffer.create 8192 in
  for row = 0 to 23 do
    for col = 0 to 71 do
      Printf.bprintf b "%d\n" (Uarch.Heatmap.cell hm ~row ~col)
    done
  done;
  check ts "cells" "52ef379dfc881f6e7a39c580923178f4" (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "cache: hit/miss" `Quick test_cache_basic_hit_miss;
    Alcotest.test_case "cache: capacity" `Quick test_cache_capacity;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "bad geometries rejected" `Quick test_bad_geometries_rejected;
    Alcotest.test_case "tlb: 4k pages" `Quick test_tlb_4k;
    Alcotest.test_case "tlb: hugepage reach" `Quick test_tlb_2m_reach;
    Alcotest.test_case "tlb: page scaling" `Quick test_tlb_page_scaling;
    Alcotest.test_case "btb: resteer once" `Quick test_btb_resteer_once;
    Alcotest.test_case "btb: capacity pressure" `Quick test_btb_capacity_pressure;
    Alcotest.test_case "core: counter sanity" `Quick test_core_counter_sanity;
    Alcotest.test_case "core: deterministic" `Quick test_core_counters_deterministic;
    Alcotest.test_case "core: hugepage iTLB" `Quick test_core_hugepage_itlb;
    Alcotest.test_case "heatmap" `Quick test_heatmap_accumulates;
    Alcotest.test_case "heatmap: pinned cells of 505.mcf" `Quick test_heatmap_pinned_mcf;
    QCheck_alcotest.to_alcotest cache_equals_reference_law;
    QCheck_alcotest.to_alcotest tlb_equals_reference_law;
    QCheck_alcotest.to_alcotest dsb_equals_two_windows_law;
    QCheck_alcotest.to_alcotest consume_equals_reference_law;
    Alcotest.test_case "core: DSB windows of a line in two sets" `Quick
      test_core_rejects_shared_dsb_set;
    Alcotest.test_case "core: consume allocation bounded" `Quick test_consume_allocation;
    Alcotest.test_case "core: create allocation bounded" `Quick test_create_allocation;
  ]
