type mblock = Linker.Binary.block_info

type index = { mblocks : mblock array; los : int array; msizes : int array; positions : int array }

type dfunc = { name : string; first : int; last : int; efirst : int; elast : int; samples : int }

type t = {
  block_index : index;
  counts : int array;
  order : int array;
  funcs : dfunc array;
  edges : int array;
  edge_counts : int array;
  arcs : int array;
  arc_counts : int array;
}

(* The mapped blocks go to the sort in reverse link order, the sequence
   it was fed when the index was a list of per-block address-map
   records, and [Array.sort] permutes by comparison outcomes alone: so
   blocks that share an address (zero-size blocks emptied by
   relaxation) keep that sort's tie order, which reaches the DCFG. *)
let interval_index (binary : Linker.Binary.t) =
  let blocks = binary.blocks and maps = binary.bb_addr_map in
  let n = Array.fold_left (fun acc (m : Linker.Binary.map_range) -> acc + m.last - m.first) 0 maps in
  let positions = Array.make n 0 in
  let k = ref n in
  Array.iter
    (fun (m : Linker.Binary.map_range) ->
      for p = m.first to m.last - 1 do
        decr k;
        positions.(!k) <- p
      done)
    maps;
  Array.sort (fun p q -> Int.compare blocks.(p).addr blocks.(q).addr) positions;
  {
    mblocks = Array.map (fun p -> blocks.(p)) positions;
    los = Array.map (fun p -> blocks.(p).addr) positions;
    msizes = Array.map (fun p -> blocks.(p).size) positions;
    positions;
  }

let find_idx idx addr = Support.Isearch.covering ~addrs:idx.los ~sizes:idx.msizes addr

let find_in idx addr =
  match find_idx idx addr with
  | -1 -> None
  | i -> Some (i, idx.mblocks.(i))

(* Position of [name] in the sorted [names], -1 when absent. *)
let find_name names name =
  let rec go lo hi =
    if lo >= hi then -1
    else begin
      let mid = (lo + hi) / 2 in
      let c = String.compare names.(mid) name in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length names)

(* Execution covered [range_lo, range_hi): range_hi is the end address
   of the next recorded branch, so a block *starting* exactly there
   never ran. Top level, so that no closure is allocated per range. *)
let rec walk_range blocks counts edges range_hi n i =
  if i < Array.length blocks then begin
    let b : mblock = blocks.(i) in
    if b.addr < range_hi then begin
      counts.(i) <- counts.(i) + n;
      (if i + 1 < Array.length blocks then begin
         let nxt = blocks.(i + 1) in
         if nxt.addr = b.addr + b.size && String.equal nxt.func b.func && nxt.addr < range_hi then
           Support.Itab.add edges (Support.Packed.pack ~src:i ~dst:(i + 1)) n
       end);
      walk_range blocks counts edges range_hi n (i + 1)
    end
  end

(* Packed keys and their counts, sorted by key. *)
let sorted_pairs items =
  let items = Array.of_list items in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) items;
  (Array.map fst items, Array.map snd items)

let build_with ~profile idx =
  let blocks = idx.mblocks in
  let n = Array.length blocks in
  let counts = Array.make n 0 in
  (* Edges and call arcs keyed by packed index positions while the
     profile is read; they are re-keyed by rank once the sampled
     functions are known. *)
  let edge_acc = Support.Itab.create 256 and arc_acc = Support.Itab.create 64 in
  (* Taken-branch records: the branch retires at [src] (its end
     address); the block containing src-1 is the source block. *)
  Perfmon.Lbr.iter_pairs
    (fun ~src ~dst n ->
      let si = find_idx idx (src - 1) in
      if si >= 0 then begin
        let di = find_idx idx dst in
        if di >= 0 then begin
          let sb : mblock = blocks.(si) and db : mblock = blocks.(di) in
          counts.(di) <- counts.(di) + n;
          let key = Support.Packed.pack ~src:si ~dst:di in
          if String.equal sb.func db.func then Support.Itab.add edge_acc key n
          else if db.block = 0 && db.addr = dst then Support.Itab.add arc_acc key n
          (* otherwise: a return landing mid-block; not a CFG edge *)
        end
      end)
    profile.Perfmon.Lbr.branches;
  (* Sequential ranges between consecutive LBR records: fall-through
     edges and block counts. *)
  Perfmon.Lbr.iter_pairs
    (fun ~src:range_lo ~dst:range_hi n ->
      match find_idx idx range_lo with
      | -1 -> ()
      | i0 -> walk_range blocks counts edge_acc range_hi n i0)
    profile.Perfmon.Lbr.ranges;
  let sampled = ref [] in
  Array.iteri (fun i c -> if c > 0 then sampled := blocks.(i).func :: !sampled) counts;
  let names = Array.of_list (List.sort_uniq String.compare !sampled) in
  (* Every mapped block of each sampled function, in address order. A
     section's blocks are adjacent and share their function's name
     string, so the name is looked up only where it changes. *)
  let members = Array.make (Array.length names) [] in
  let last_func = ref "" and f = ref (-1) in
  for i = n - 1 downto 0 do
    let b : mblock = blocks.(i) in
    if b.func != !last_func then begin
      last_func := b.func;
      f := find_name names b.func
    end;
    if !f >= 0 then members.(!f) <- i :: members.(!f)
  done;
  let by_func =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.stable_sort (fun i j -> Int.compare blocks.(i).block blocks.(j).block) a;
        a)
      members
  in
  let order = Array.concat (Array.to_list by_func) in
  let rank = Array.make n (-1) in
  Array.iteri (fun r i -> rank.(i) <- r) order;
  let edges, edge_counts =
    sorted_pairs
      (Support.Itab.fold
         (fun key c acc ->
           ( Support.Packed.pack
               ~src:rank.(Support.Packed.src key)
               ~dst:rank.(Support.Packed.dst key),
             c )
           :: acc)
         edge_acc [])
  in
  let arcs, arc_counts =
    sorted_pairs
      (Support.Itab.fold
         (fun key c acc ->
           match rank.(Support.Packed.src key) with
           | -1 -> acc
           | caller ->
             let callee = find_name names blocks.(Support.Packed.dst key).func in
             (Support.Packed.pack ~src:caller ~dst:callee, c) :: acc)
         arc_acc [])
  in
  let next_rank = ref 0 and next_edge = ref 0 in
  let funcs =
    Array.mapi
      (fun k a ->
        let first = !next_rank in
        let last = first + Array.length a in
        next_rank := last;
        let efirst = !next_edge in
        while !next_edge < Array.length edges && Support.Packed.src edges.(!next_edge) < last do
          incr next_edge
        done;
        let samples = Array.fold_left (fun acc i -> acc + counts.(i)) 0 a in
        { name = names.(k); first; last; efirst; elast = !next_edge; samples })
      by_func
  in
  { block_index = idx; counts; order; funcs; edges; edge_counts; arcs; arc_counts }

let build ~profile ~(binary : Linker.Binary.t) =
  if Array.length binary.bb_addr_map = 0 then
    invalid_arg "Dcfg.build: binary carries no .llvm_bb_addr_map (not a metadata build)";
  build_with ~profile (interval_index binary)

(* Disassembly-equivalent view: block boundaries recovered from the
   binary's placed blocks instead of metadata. This is what a (perfect)
   recursive disassembler would reconstruct; BOLT-style tools consume
   profiles through this path. *)
let build_of_blocks ~profile ~(binary : Linker.Binary.t) =
  let idx = Linker.Binary.index binary in
  build_with ~profile
    { mblocks = idx.ordered; los = idx.addrs; msizes = idx.sizes; positions = idx.order }

let block t r = t.block_index.mblocks.(t.order.(r))

let count t r = t.counts.(t.order.(r))

let hot_ranks t d =
  let rec go r acc =
    if r < d.first then acc
    else go (r - 1) (if count t r > 0 || (block t r).block = 0 then r :: acc else acc)
  in
  go (d.last - 1) []

let sampled_bytes t d =
  let bytes = ref 0 in
  for r = d.first to d.last - 1 do
    if count t r > 0 then bytes := !bytes + (block t r).size
  done;
  !bytes

let func_of_rank t r =
  (* Invariant: funcs.(lo).first <= r < funcs.(hi).first. *)
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.funcs.(mid).first <= r then go mid hi else go lo mid
    end
  in
  go 0 (Array.length t.funcs)

let num_blocks t =
  Array.fold_left (fun acc i -> if t.counts.(i) > 0 then acc + 1 else acc) 0 t.order

let num_edges t = Array.length t.edges

let find_block t addr = Option.map snd (find_in t.block_index addr)

let function_order t funcs =
  let sub = Array.make (Array.length t.funcs) (-1) in
  List.iteri (fun i d -> sub.(func_of_rank t d.first) <- i) funcs;
  let names = Array.of_list (List.map (fun d -> d.name) funcs) in
  let sizes = Array.of_list (List.map (sampled_bytes t) funcs) in
  let weights = Array.of_list (List.map (fun d -> float_of_int d.samples) funcs) in
  (* One arc per call site between [funcs]; the problem sums them per
     (caller, callee) pair, exactly, as the counts are integers. The
     arrays are sized for every arc, then trimmed to the kept ones. *)
  let esrc = Array.make (Array.length t.arcs) 0 in
  let edst = Array.make (Array.length esrc) 0 and ew = Array.make (Array.length esrc) 0.0 in
  let m = ref 0 in
  Array.iteri
    (fun k key ->
      let a = sub.(func_of_rank t (Support.Packed.src key)) and b = sub.(Support.Packed.dst key) in
      if a >= 0 && b >= 0 then begin
        esrc.(!m) <- a;
        edst.(!m) <- b;
        ew.(!m) <- float_of_int t.arc_counts.(k);
        incr m
      end)
    t.arcs;
  let esrc = Array.sub esrc 0 !m and edst = Array.sub edst 0 !m and ew = Array.sub ew 0 !m in
  Layout.Hfsort.order (Layout.Problem.make ~sizes ~weights ~esrc ~edst ~ew ~entry:0)
  |> List.map (fun i -> names.(i))
