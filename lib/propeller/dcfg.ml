type mblock = { lo : int; msize : int; owner : string; bb : int; mutable count : int }

type dfunc = {
  dname : string;
  dblocks : (int, mblock) Hashtbl.t;
  dedges : Support.Itab.t;  (** packed (src bb, dst bb) -> count *)
  mutable dsamples : int;
}

type index = { mblocks : mblock array; los : int array; msizes : int array }

type t = {
  funcs : (string, dfunc) Hashtbl.t;
  call_arcs : (string * int * string, int ref) Hashtbl.t;
      (** (caller, caller bb, callee) -> count *)
  block_index : index;
}

type shape = { blocks : (int * int) list; sizes : int array }

let interval_index (binary : Linker.Binary.t) =
  let items = ref [] in
  List.iter
    (fun (fm : Objfile.Bbmap.func_map) ->
      match Linker.Binary.symbol_addr binary fm.func with
      | None -> ()
      | Some sym_addr ->
        let owner = Objfile.Symname.owner fm.func in
        List.iter
          (fun (e : Objfile.Bbmap.entry) ->
            items :=
              { lo = sym_addr + e.offset; msize = e.size; owner; bb = e.bb_id; count = 0 }
              :: !items)
          fm.entries)
    binary.bb_maps;
  let mblocks = Array.of_list !items in
  Array.sort (fun a b -> compare a.lo b.lo) mblocks;
  {
    mblocks;
    los = Array.map (fun b -> b.lo) mblocks;
    msizes = Array.map (fun b -> b.msize) mblocks;
  }

let find_idx idx addr = Support.Isearch.covering ~addrs:idx.los ~sizes:idx.msizes addr

let find_in idx addr =
  match find_idx idx addr with
  | -1 -> None
  | i -> Some (i, idx.mblocks.(i))

let build_with ~profile idx =
  let blocks = idx.mblocks in
  let funcs : (string, dfunc) Hashtbl.t = Hashtbl.create 1024 in
  let dfunc_of owner =
    match Hashtbl.find_opt funcs owner with
    | Some d -> d
    | None ->
      let d =
        { dname = owner; dblocks = Hashtbl.create 16; dedges = Support.Itab.create 16; dsamples = 0 }
      in
      Hashtbl.replace funcs owner d;
      d
  in
  let note_block (b : mblock) n =
    b.count <- b.count + n;
    let d = dfunc_of b.owner in
    d.dsamples <- d.dsamples + n;
    if not (Hashtbl.mem d.dblocks b.bb) then Hashtbl.replace d.dblocks b.bb b
  in
  let note_edge owner src_bb dst_bb n =
    let d = dfunc_of owner in
    Support.Itab.add d.dedges (Support.Packed.pack ~src:src_bb ~dst:dst_bb) n
  in
  let call_arcs : (string * int * string, int ref) Hashtbl.t = Hashtbl.create 256 in
  let note_call caller caller_bb callee n =
    match Hashtbl.find_opt call_arcs (caller, caller_bb, callee) with
    | Some r -> r := !r + n
    | None -> Hashtbl.replace call_arcs (caller, caller_bb, callee) (ref n)
  in
  (* Taken-branch records: the branch retires at [src] (its end
     address); the block containing src-1 is the source block. *)
  Perfmon.Lbr.iter_pairs
    (fun ~src ~dst n ->
      let si = find_idx idx (src - 1) in
      if si >= 0 then begin
        let di = find_idx idx dst in
        if di >= 0 then begin
          let sb = blocks.(si) and db = blocks.(di) in
          note_block db n;
          if String.equal sb.owner db.owner then note_edge sb.owner sb.bb db.bb n
          else if db.bb = 0 && db.lo = dst then note_call sb.owner sb.bb db.owner n
          (* otherwise: a return landing mid-block; not a CFG edge *)
        end
      end)
    profile.Perfmon.Lbr.branches;
  (* Execution covered [range_lo, range_hi): range_hi is the end
     address of the next recorded branch, so a block *starting* exactly
     there never ran. Top-level recursion (via the pre-allocated
     [note_block]/[note_edge] closures) — a nested [let rec] would
     allocate a closure per LBR range entry. *)
  let rec walk_range note_block note_edge blocks range_hi n i =
    if i < Array.length blocks then begin
      let b = blocks.(i) in
      if b.lo < range_hi then begin
        note_block b n;
        (if i + 1 < Array.length blocks then begin
           let nxt = blocks.(i + 1) in
           if nxt.lo = b.lo + b.msize && String.equal nxt.owner b.owner && nxt.lo < range_hi
           then note_edge b.owner b.bb nxt.bb n
         end);
        walk_range note_block note_edge blocks range_hi n (i + 1)
      end
    end
  in
  (* Sequential ranges between consecutive LBR records: fall-through
     edges and block counts. *)
  Perfmon.Lbr.iter_pairs
    (fun ~src:range_lo ~dst:range_hi n ->
      match find_idx idx range_lo with
      | -1 -> ()
      | i0 -> walk_range note_block note_edge blocks range_hi n i0)
    profile.Perfmon.Lbr.ranges;
  { funcs; call_arcs; block_index = idx }

let build ~profile ~(binary : Linker.Binary.t) =
  if binary.bb_maps = [] then
    invalid_arg "Dcfg.build: binary carries no .llvm_bb_addr_map (not a metadata build)";
  build_with ~profile (interval_index binary)

(* Disassembly-equivalent view: block boundaries recovered from the
   binary's placed blocks instead of metadata. This is what a (perfect)
   recursive disassembler would reconstruct; BOLT-style tools consume
   profiles through this path. *)
let build_of_blocks ~profile ~(binary : Linker.Binary.t) =
  let idx = Linker.Binary.index binary in
  let mblocks =
    Array.map
      (fun (b : Linker.Binary.block_info) ->
        { lo = b.addr; msize = b.size; owner = b.func; bb = b.block; count = 0 })
      idx.ordered
  in
  build_with ~profile { mblocks; los = idx.addrs; msizes = idx.sizes }

(* One pass over the block index. Blocks of one section are adjacent
   and share their owner string, so the owner is looked up only where
   it changes. Each function's pairs gather in reverse address order. *)
let shapes t funcs =
  let owned : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace owned d.dname (ref [])) funcs;
  let last_owner = ref "" and last_cell = ref None in
  Array.iter
    (fun b ->
      if b.owner != !last_owner then begin
        last_owner := b.owner;
        last_cell := Hashtbl.find_opt owned b.owner
      end;
      match !last_cell with Some cell -> cell := (b.bb, b.msize) :: !cell | None -> ())
    t.block_index.mblocks;
  let shapes = Hashtbl.create (Hashtbl.length owned) in
  Hashtbl.iter
    (fun name cell ->
      match !cell with
      | [] -> ()
      | rev ->
        let top = List.fold_left (fun acc (bb, _) -> max acc bb) 0 rev in
        let sizes = Array.make (top + 1) 16 in
        List.iter (fun (bb, size) -> sizes.(bb) <- size) (List.rev rev);
        Hashtbl.replace shapes name { blocks = List.sort compare rev; sizes })
    owned;
  shapes

let block_size shapes func bb =
  match Hashtbl.find_opt shapes func with
  | Some s when bb >= 0 && bb < Array.length s.sizes -> s.sizes.(bb)
  | Some _ | None -> 16

let hot_funcs t =
  Hashtbl.fold (fun _ d acc -> if d.dsamples > 0 then d :: acc else acc) t.funcs []
  |> List.sort (fun a b -> compare a.dname b.dname)

let num_blocks t =
  Hashtbl.fold (fun _ d acc -> acc + Hashtbl.length d.dblocks) t.funcs 0

let num_edges t = Hashtbl.fold (fun _ d acc -> acc + Support.Itab.length d.dedges) t.funcs 0

let find_block t addr = Option.map snd (find_in t.block_index addr)

let func_arcs t =
  let agg = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (caller, _, callee) r ->
      match Hashtbl.find_opt agg (caller, callee) with
      | Some a -> a := !a + !r
      | None -> Hashtbl.add agg (caller, callee) (ref !r))
    t.call_arcs;
  Hashtbl.fold (fun (caller, callee) r acc -> (caller, callee, float_of_int !r) :: acc) agg []
  |> List.sort compare

let function_order t funcs =
  let names = Array.of_list (List.map (fun d -> d.dname) funcs) in
  let name_idx = Hashtbl.create 64 in
  Array.iteri (fun i nm -> Hashtbl.replace name_idx nm i) names;
  let sizes =
    Array.of_list
      (List.map (fun d -> Hashtbl.fold (fun _ b acc -> acc + b.msize) d.dblocks 0) funcs)
  in
  let weights = Array.of_list (List.map (fun d -> float_of_int d.dsamples) funcs) in
  let edges =
    func_arcs t
    |> List.filter_map (fun (caller, callee, w) ->
           match (Hashtbl.find_opt name_idx caller, Hashtbl.find_opt name_idx callee) with
           | Some a, Some b -> Some (a, b, w)
           | None, _ | _, None -> None)
  in
  Layout.Hfsort.order (Layout.Problem.make ~sizes ~weights ~edges ~entry:0)
  |> List.map (fun i -> names.(i))
