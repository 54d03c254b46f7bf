type batch = { round : int; shards : Machine.shard list }

type stats = {
  shards_merged : int;
  stale_shards : int;
  dropped_shards : int;
  translated_pairs : int;
  dropped_pairs : int;
  batches : int;
}

(* One registered image: its placed blocks in final address order (the
   range-walk index, mirroring how the WPA's DCFG walks sequential
   ranges), plus flat (addr, size) arrays for batch binary search. *)
type index = {
  locs : Inspect.Resolve.location array;
  laddrs : int array;
  lsizes : int array;
}

type t = {
  window : int;
  decay : float;
  branch_weight : float;
  mutable batches : batch list;  (* newest first *)
  resolvers : (string, index) Hashtbl.t;  (* hex digest -> index *)
}

let create ?(window = 4) ?(decay = 0.5) ?(lbr_depth = 32) () =
  if window < 1 then invalid_arg "Aggregate.create: window must be positive";
  if decay < 0.0 || decay > 1.0 then invalid_arg "Aggregate.create: decay must be in [0, 1]";
  (* Count inference, as the paper's profile conversion does: a ring of
     depth D replays a taken-branch record in ~D consecutive samples
     but a fall-through range pair (two adjacent slots) in only ~D-1,
     so branch-derived counts are deflated by (D-1)/D to put both
     encodings of the same logical edge on one scale. Without this the
     aggregate inherits a taken-vs-fall-through skew from whichever
     layout the shard was collected on. *)
  let branch_weight =
    if lbr_depth >= 2 then float_of_int (lbr_depth - 1) /. float_of_int lbr_depth else 1.0
  in
  { window; decay; branch_weight; batches = []; resolvers = Hashtbl.create 8 }

let index_order res =
  let locs = Array.init (Inspect.Resolve.num_blocks res) (Inspect.Resolve.location_at res) in
  Array.stable_sort
    (fun (a : Inspect.Resolve.location) b ->
      match compare a.block_addr b.block_addr with 0 -> String.compare a.func b.func | c -> c)
    locs;
  locs

let register t binary =
  let hex = Support.Digesting.to_hex (Linker.Binary.image_digest binary) in
  if not (Hashtbl.mem t.resolvers hex) then begin
    let locs = index_order (Inspect.Resolve.create binary) in
    let laddrs = Array.map (fun (l : Inspect.Resolve.location) -> l.block_addr) locs in
    let lsizes = Array.map (fun (l : Inspect.Resolve.location) -> l.block_size) locs in
    Hashtbl.add t.resolvers hex { locs; laddrs; lsizes }
  end

let push t ~round shards =
  let shards =
    List.sort (fun (a : Machine.shard) b -> Stdlib.compare a.machine b.machine) shards
  in
  let batches = { round; shards } :: t.batches in
  let rec cap n = function [] -> [] | _ when n = 0 -> [] | x :: rest -> x :: cap (n - 1) rest in
  t.batches <- cap t.window batches

(* The logical units an LBR profile decodes to. Addresses drop out
   entirely — this is what makes the merged aggregate independent of
   the layout each shard was collected on. *)
type item =
  | Edge of string * int * int  (** Intra-function transfer a -> b. *)
  | Call of string * int * string  (** caller block -> callee entry. *)
  | Landing of string * int * string * int * int
      (** Cross-function landing mid-block (returns): source block,
          destination (func, block, offset) — visit evidence only. *)

let find_loc (idx : index) addr =
  match Support.Isearch.covering ~addrs:idx.laddrs ~sizes:idx.lsizes addr with
  | -1 -> None
  | i -> Some (i, idx.locs.(i))

(* Decode one profile against the layout it was collected on, exactly
   mirroring the DCFG's reading of the record streams: a taken-branch
   record's source block contains [src - 1]; a sequential range covers
   the blocks below [range_hi] and yields the fall-through edges
   between address-adjacent same-function blocks. Emitted weights are
   floats: branch-derived evidence carries the ring-multiplicity
   deflation so both encodings of a logical edge weigh the same. *)
let decode t (idx : index) (p : Perfmon.Lbr.profile) emit drop =
  (* Both endpoints of every taken-branch record resolve as flat
     batches against the source layout's block index. *)
  let items = Support.Itab.sorted_items p.Perfmon.Lbr.branches in
  let srcs = Array.map (fun (key, _) -> Support.Packed.src key - 1) items in
  let dsts = Array.map (fun (key, _) -> Support.Packed.dst key) items in
  let si = Support.Isearch.covering_batch ~addrs:idx.laddrs ~sizes:idx.lsizes srcs in
  let di = Support.Isearch.covering_batch ~addrs:idx.laddrs ~sizes:idx.lsizes dsts in
  Array.iteri
    (fun j (_, n) ->
      let w = float_of_int n *. t.branch_weight in
      if si.(j) >= 0 && di.(j) >= 0 then begin
        let sb = idx.locs.(si.(j)) and db = idx.locs.(di.(j)) in
        if String.equal sb.func db.func then emit (Edge (sb.func, sb.block, db.block)) w
        else if db.block = 0 && db.offset = 0 then emit (Call (sb.func, sb.block, db.func)) w
        else emit (Landing (sb.func, sb.block, db.func, db.block, db.offset)) w
      end
      else drop n)
    items;
  Perfmon.Lbr.iter_pairs
    (fun ~src:range_lo ~dst:range_hi n ->
      match find_loc idx range_lo with
      | None -> drop n
      | Some (i0, _) ->
        let rec walk i =
          if i + 1 < Array.length idx.locs then begin
            let b = idx.locs.(i) and nxt = idx.locs.(i + 1) in
            if
              nxt.block_addr < range_hi
              && nxt.block_addr = b.block_addr + b.block_size
              && String.equal nxt.func b.func
            then begin
              emit (Edge (b.func, b.block, nxt.block)) (float_of_int n);
              walk (i + 1)
            end
            else if nxt.block_addr < range_hi then walk (i + 1)
          end
        in
        walk i0)
    p.Perfmon.Lbr.ranges

(* Re-encode a logical item the way a profile collected *on the target
   layout* would have recorded it: transfers to the address-adjacent
   next block become fall-through range evidence (post-relaxation they
   retire no taken branch), everything else a taken-branch record.
   Calls always record as taken branches, landing on the callee entry. *)
(* Weight accumulators are packed-key float tables: one immediate int
   key per logical pair ({!Support.Packed}), no tuple allocation per
   bump. *)
let encode tbl item n ~branches ~ranges ~translated ~dropped =
  let tloc f b : Inspect.Resolve.location option = Hashtbl.find_opt tbl (f, b) in
  let bump (table : (int, float) Hashtbl.t) ~src ~dst n =
    let key = Support.Packed.pack ~src ~dst in
    Hashtbl.replace table key (n +. Option.value ~default:0.0 (Hashtbl.find_opt table key))
  in
  let end_addr (l : Inspect.Resolve.location) = l.block_addr + l.block_size in
  match item with
  | Edge (f, a, b) -> (
    match (tloc f a, tloc f b) with
    | Some la, Some lb when la.block_size > 0 && lb.block_size > 0 ->
      translated := !translated + 1;
      if lb.block_addr = end_addr la then
        bump ranges ~src:la.block_addr ~dst:(lb.block_addr + 1) n
      else bump branches ~src:(end_addr la) ~dst:lb.block_addr n
    | _ -> dropped := !dropped + 1)
  | Call (f, a, g) -> (
    match (tloc f a, tloc g 0) with
    | Some la, Some lg when la.block_size > 0 ->
      translated := !translated + 1;
      bump branches ~src:(end_addr la) ~dst:lg.block_addr n
    | _ -> dropped := !dropped + 1)
  | Landing (f, a, g, b, off) -> (
    match (tloc f a, tloc g b) with
    | Some la, Some lb when la.block_size > 0 && lb.block_size > 0 ->
      let off = min off (lb.block_size - 1) in
      (* A landing at a callee entry's first byte would re-encode as a
         call arc; nudge inside the block (or drop a 1-byte entry). *)
      if b = 0 && off = 0 && lb.block_size < 2 then dropped := !dropped + 1
      else begin
        translated := !translated + 1;
        let off = if b = 0 && off = 0 then 1 else off in
        bump branches ~src:(end_addr la) ~dst:(lb.block_addr + off) n
      end
    | _ -> dropped := !dropped + 1)

(* Sorted (packed key, weight) pairs of a packed-key table. Packed keys
   sort exactly like their (src, dst) pairs. *)
let sorted_pairs tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort Stdlib.compare

(* Rebuild an int table by inserting pairs in sorted order: slot layout
   (hence iteration order) becomes a pure function of contents, so
   downstream consumers (WPA's DCFG construction) see the same profile
   no matter what order the shards merged in. *)
let canonical (tbl : Support.Itab.t) =
  let items = Support.Itab.sorted_items tbl in
  let out = Support.Itab.create (max 16 (Array.length items)) in
  Array.iter (fun (k, v) -> Support.Itab.add out k v) items;
  out

let block_table (target : index) =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun (loc : Inspect.Resolve.location) -> Hashtbl.replace tbl (loc.func, loc.block) loc)
    target.locs;
  tbl

let merged t ~target =
  let target_idx =
    match Hashtbl.find_opt t.resolvers target with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "Aggregate.merged: unregistered target %s" target)
  in
  let tbl = block_table target_idx in
  let out = Perfmon.Lbr.create_profile () in
  let fbranches : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let franges : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let shards_merged = ref 0
  and stale = ref 0
  and dropped_shards = ref 0
  and translated = ref 0
  and dropped = ref 0 in
  let newest = match t.batches with [] -> 0 | b :: _ -> b.round in
  List.iter
    (fun b ->
      let factor = t.decay ** float_of_int (newest - b.round) in
      let scale n = int_of_float (float_of_int n *. factor) in
      List.iter
        (fun (sh : Machine.shard) ->
          match Hashtbl.find_opt t.resolvers sh.digest with
          | None -> incr dropped_shards
          | Some source ->
            incr shards_merged;
            if sh.digest <> target then incr stale;
            let p = sh.profile in
            (* Every shard — current generation included — goes through
               decode/encode, so the aggregate is one canonical function
               of (logical traffic, target layout): the fixed point the
               relink loop converges to. Weights accumulate as floats
               and round once at the end; decayed evidence fades to
               zero and is dropped from the tables. *)
            decode t source p
              (fun item w ->
                let w = w *. factor in
                if w > 0.0 then
                  encode tbl item w ~branches:fbranches ~ranges:franges ~translated
                    ~dropped)
              (fun n -> if scale n > 0 then dropped := !dropped + 1);
            Perfmon.Lbr.iter_pairs
              (fun ~src ~dst n ->
                let n = scale n in
                if n > 0 then
                  match (find_loc source (src - 1), find_loc source dst) with
                  | Some (_, sb), Some (_, db) -> (
                    match (Hashtbl.find_opt tbl (sb.func, sb.block),
                           Hashtbl.find_opt tbl (db.func, db.block))
                    with
                    | Some la, Some lb when la.block_size > 0 ->
                      Perfmon.Lbr.add_pair out.Perfmon.Lbr.mispredicts
                        ~src:(la.block_addr + la.block_size) ~dst:lb.block_addr n
                    | _ -> ())
                  | _ -> ())
              p.Perfmon.Lbr.mispredicts;
            out.num_samples <- out.num_samples + scale p.num_samples;
            out.num_records <- out.num_records + scale p.num_records)
        b.shards)
    t.batches;
  (* Round the float accumulators into canonical int tables: sorted
     insertion keeps slot layout a pure function of contents. *)
  let rounded ftbl =
    let itbl = Support.Itab.create (max 16 (Hashtbl.length ftbl)) in
    List.iter
      (fun (k, w) ->
        let n = int_of_float (Float.round w) in
        if n > 0 then Support.Itab.add itbl k n)
      (sorted_pairs ftbl);
    itbl
  in
  let out =
    {
      out with
      Perfmon.Lbr.branches = rounded fbranches;
      ranges = rounded franges;
      mispredicts = canonical out.mispredicts;
    }
  in
  ( out,
    {
      shards_merged = !shards_merged;
      stale_shards = !stale;
      dropped_shards = !dropped_shards;
      translated_pairs = !translated;
      dropped_pairs = !dropped;
      batches = List.length t.batches;
    } )

let signature (p : Perfmon.Lbr.profile) =
  let buf = Buffer.create 4096 in
  let dump tag tbl =
    Array.iter
      (fun (key, c) ->
        Printf.bprintf buf "%s %d %d %d\n" tag (Support.Packed.src key)
          (Support.Packed.dst key) c)
      (Support.Itab.sorted_items tbl)
  in
  dump "b" p.branches;
  dump "r" p.ranges;
  dump "m" p.mispredicts;
  Printf.bprintf buf "t %d %d\n" p.num_samples p.num_records;
  Support.Digesting.to_hex (Support.Digesting.of_string (Buffer.contents buf))
