(* The hash-table DCFG, WPA and inter-procedural layout as they stood
   before the DCFG was keyed on the address map's block numbers, kept
   here only as the oracle that [Propeller.Dcfg], [Propeller.Wpa.analyze]
   and [Propeller.Interproc.layout] must reproduce bit for bit. Functions
   are a [(string, dfunc) Hashtbl.t] of per-function [(int, mblock)
   Hashtbl.t] blocks and [Support.Itab] edges, call arcs a
   [(string * int * string, int ref) Hashtbl.t], and every reader folds
   a table and sorts the result. The hot/cold partition is the one
   [Layout.Split.partition] computed at threshold 0. Layout caching and
   profile-shard faults are left out: the laws compare fresh analyses.
   [interval_index] keeps the algorithm of the days when a linked binary
   carried one address-map record per block: it rebuilds those records
   from the binary's map ranges ([Testutil.bb_map_of]), lists them in
   reverse, and sorts them by address. *)

type mblock = { lo : int; msize : int; owner : string; bb : int; mutable count : int }

type dfunc = {
  dname : string;
  dblocks : (int, mblock) Hashtbl.t;
  dedges : Support.Itab.t;
  mutable dsamples : int;
}

type index = { mblocks : mblock array; los : int array; msizes : int array }

type t = {
  funcs : (string, dfunc) Hashtbl.t;
  call_arcs : (string * int * string, int ref) Hashtbl.t;
  block_index : index;
}

type shape = { blocks : (int * int) list; sizes : int array }

let interval_index (binary : Linker.Binary.t) =
  let items = ref [] in
  List.iter
    (fun (fm : Objfile.Bbmap.func_map) ->
      match Testutil.symbol_addr binary fm.func with
      | None -> ()
      | Some sym_addr ->
        let owner = Objfile.Symname.owner fm.func in
        List.iter
          (fun (e : Objfile.Bbmap.entry) ->
            items :=
              { lo = sym_addr + e.offset; msize = e.size; owner; bb = e.bb_id; count = 0 }
              :: !items)
          fm.entries)
    (Testutil.bb_map_of binary);
  let mblocks = Array.of_list !items in
  Array.sort (fun a b -> compare a.lo b.lo) mblocks;
  {
    mblocks;
    los = Array.map (fun b -> b.lo) mblocks;
    msizes = Array.map (fun b -> b.msize) mblocks;
  }

let find_idx idx addr = Support.Isearch.covering ~addrs:idx.los ~sizes:idx.msizes addr

let build_with ~profile idx =
  let blocks = idx.mblocks in
  let funcs : (string, dfunc) Hashtbl.t = Hashtbl.create 1024 in
  let dfunc_of owner =
    match Hashtbl.find_opt funcs owner with
    | Some d -> d
    | None ->
      let d =
        {
          dname = owner;
          dblocks = Hashtbl.create 16;
          dedges = Support.Itab.create 16;
          dsamples = 0;
        }
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
        end
      end)
    profile.Perfmon.Lbr.branches;
  let rec walk_range range_hi n i =
    if i < Array.length blocks then begin
      let b = blocks.(i) in
      if b.lo < range_hi then begin
        note_block b n;
        (if i + 1 < Array.length blocks then begin
           let nxt = blocks.(i + 1) in
           if nxt.lo = b.lo + b.msize && String.equal nxt.owner b.owner && nxt.lo < range_hi
           then note_edge b.owner b.bb nxt.bb n
         end);
        walk_range range_hi n (i + 1)
      end
    end
  in
  Perfmon.Lbr.iter_pairs
    (fun ~src:range_lo ~dst:range_hi n ->
      match find_idx idx range_lo with
      | -1 -> ()
      | i0 -> walk_range range_hi n i0)
    profile.Perfmon.Lbr.ranges;
  { funcs; call_arcs; block_index = idx }

let build ~profile ~(binary : Linker.Binary.t) = build_with ~profile (interval_index binary)

let build_of_blocks ~profile ~(binary : Linker.Binary.t) =
  let idx = Linker.Binary.index binary in
  let mblocks =
    Array.map
      (fun (b : Linker.Binary.block_info) ->
        { lo = b.addr; msize = b.size; owner = b.func; bb = b.block; count = 0 })
      idx.ordered
  in
  build_with ~profile { mblocks; los = idx.addrs; msizes = idx.sizes }

let shapes t funcs =
  let owned : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace owned d.dname (ref [])) funcs;
  Array.iter
    (fun b ->
      match Hashtbl.find_opt owned b.owner with
      | Some cell -> cell := (b.bb, b.msize) :: !cell
      | None -> ())
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

let num_blocks t = Hashtbl.fold (fun _ d acc -> acc + Hashtbl.length d.dblocks) t.funcs 0

let num_edges t = Hashtbl.fold (fun _ d acc -> acc + Support.Itab.length d.dedges) t.funcs 0

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
  Layout.Hfsort.order (Testutil.problem_of_edges ~sizes ~weights ~edges ~entry:0)
  |> List.map (fun i -> names.(i))

(* --- WPA --------------------------------------------------------- *)

(* [Layout.Split.partition ~counts ()]: block 0 and every block with a
   positive count are hot. *)
let partition counts =
  let hot = ref [] in
  for i = Array.length counts - 1 downto 0 do
    if i = 0 || counts.(i) > 0.0 then hot := i :: !hot
  done;
  !hot

let layout_prelude d =
  let bbs =
    (0 :: Hashtbl.fold (fun bb _ acc -> bb :: acc) d.dblocks []) |> List.sort_uniq compare
  in
  let bb_arr = Array.of_list bbs in
  let counts =
    Array.map
      (fun bb ->
        match Hashtbl.find_opt d.dblocks bb with
        | Some b -> float_of_int b.count
        | None -> 0.0)
      bb_arr
  in
  (bb_arr, counts)

let layout_instance shapes d bb_arr hot =
  let hot_arr = Array.of_list (List.map (fun i -> bb_arr.(i)) hot) in
  let idx_of = Hashtbl.create 16 in
  Array.iteri (fun i bb -> Hashtbl.replace idx_of bb i) hot_arr;
  let sizes = Array.map (block_size shapes d.dname) hot_arr in
  let weights =
    Array.map
      (fun bb ->
        match Hashtbl.find_opt d.dblocks bb with
        | Some b -> float_of_int b.count
        | None -> 0.0)
      hot_arr
  in
  let edges =
    Support.Itab.fold
      (fun key r acc ->
        let s = Support.Packed.src key and t = Support.Packed.dst key in
        match (Hashtbl.find_opt idx_of s, Hashtbl.find_opt idx_of t) with
        | Some si, Some ti -> (si, ti, float_of_int r) :: acc
        | None, _ | _, None -> acc)
      d.dedges []
    |> List.sort compare
  in
  let entry = Hashtbl.find idx_of 0 in
  (hot_arr, Testutil.problem_of_edges ~sizes ~weights ~edges ~entry)

(* [Wpa.block_layout]: the Ext-TSP hot-block order of one function and
   its score. *)
let block_layout shapes d =
  let bb_arr, counts = layout_prelude d in
  let hot_arr, problem = layout_instance shapes d bb_arr (partition counts) in
  let order = Layout.Exttsp.order problem in
  (List.map (fun i -> hot_arr.(i)) order, Layout.Exttsp.score ~order problem)

let plan_of_order (config : Propeller.Wpa.config) dcfg d ordered_bbs =
  if config.split_functions then
    {
      Codegen.Directive.func = d.dname;
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = ordered_bbs } ];
    }
  else begin
    let all_bbs = ref [] in
    Array.iter
      (fun b -> if String.equal b.owner d.dname then all_bbs := b.bb :: !all_bbs)
      dcfg.block_index.mblocks;
    let rest =
      List.sort_uniq compare !all_bbs |> List.filter (fun bb -> not (List.mem bb ordered_bbs))
    in
    {
      Codegen.Directive.func = d.dname;
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = ordered_bbs @ rest } ];
    }
  end

let layout_key ~params_str ~shapes d =
  let module D = Support.Digesting in
  let st = D.init () in
  let item tag x sep y =
    D.add_string st tag;
    D.add_int st x;
    D.add_char st sep;
    D.add_int st y
  in
  D.add_string st "layout-v1|";
  D.add_string st d.dname;
  D.add_string st params_str;
  (match Hashtbl.find_opt shapes d.dname with
  | Some s -> List.iter (fun (bb, size) -> item "|b" bb ':' size) s.blocks
  | None -> ());
  let sampled =
    Hashtbl.fold (fun bb blk acc -> (bb, blk.count) :: acc) d.dblocks [] |> List.sort compare
  in
  List.iter (fun (bb, c) -> item "|c" bb ':' c) sampled;
  Array.iter
    (fun (key, w) ->
      item "|e" (Support.Packed.src key) '>' (Support.Packed.dst key);
      D.add_char st ':';
      D.add_int st w)
    (Support.Itab.sorted_items d.dedges);
  D.finish st

(* --- Interproc --------------------------------------------------- *)

type interproc = {
  iplans : Codegen.Directive.t;
  iordering : string list;
  iscore : float;
  global_nodes : int;
}

let interproc ~(policy : Layout.Policy.t) ~(params : Layout.Policy.params) ~dcfg ~entry_func =
  let hot = hot_funcs dcfg in
  let shapes = shapes dcfg hot in
  let nodes = ref [] in
  let gid : (string * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let add owner bb size weight =
    if not (Hashtbl.mem gid (owner, bb)) then begin
      Hashtbl.replace gid (owner, bb) (Hashtbl.length gid);
      nodes := (owner, bb, size, weight) :: !nodes
    end
  in
  List.iter
    (fun d ->
      let bbs =
        Hashtbl.fold
          (fun bb b acc -> if bb = 0 || b.count > 0 then (bb, b) :: acc else acc)
          d.dblocks []
        |> List.sort compare
      in
      let bbs =
        if List.exists (fun (bb, _) -> bb = 0) bbs then bbs
        else
          (0, { lo = 0; msize = block_size shapes d.dname 0; owner = d.dname; bb = 0; count = 0 })
          :: bbs
      in
      List.iter (fun (bb, b) -> add d.dname bb b.msize (float_of_int b.count)) bbs)
    hot;
  let node_arr = Array.of_list (List.rev !nodes) in
  let n = Array.length node_arr in
  let sizes = Array.map (fun (_, _, s, _) -> s) node_arr in
  let weights = Array.map (fun (_, _, _, w) -> w) node_arr in
  let edges = ref [] in
  List.iter
    (fun d ->
      Support.Itab.iter
        (fun key r ->
          let s = Support.Packed.src key and t = Support.Packed.dst key in
          match (Hashtbl.find_opt gid (d.dname, s), Hashtbl.find_opt gid (d.dname, t)) with
          | Some si, Some ti -> edges := (si, ti, float_of_int r) :: !edges
          | None, _ | _, None -> ())
        d.dedges)
    hot;
  Hashtbl.iter
    (fun (caller, caller_bb, callee) r ->
      match (Hashtbl.find_opt gid (caller, caller_bb), Hashtbl.find_opt gid (callee, 0)) with
      | Some si, Some ti -> edges := (si, ti, float_of_int !r) :: !edges
      | None, _ | _, None -> ())
    dcfg.call_arcs;
  let edges = List.sort compare !edges in
  let entry = match Hashtbl.find_opt gid (entry_func, 0) with Some e -> e | None -> 0 in
  if n = 0 then { iplans = []; iordering = []; iscore = 0.0; global_nodes = 0 }
  else begin
    let problem = Testutil.problem_of_edges ~sizes ~weights ~edges ~entry in
    let order = policy.order ~params problem in
    let score = Layout.Exttsp.score ~params:params.exttsp ~order problem in
    let runs = ref [] in
    List.iter
      (fun g ->
        let owner, bb, _, _ = node_arr.(g) in
        match !runs with
        | (o, bbs) :: rest when String.equal o owner && bb <> 0 -> runs := (o, bb :: bbs) :: rest
        | _ -> runs := (owner, [ bb ]) :: !runs)
      order;
    let runs = List.rev_map (fun (o, bbs) -> (o, List.rev bbs)) !runs in
    let min_run = 3 in
    let deferred : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let runs =
      List.filter
        (fun (o, bbs) ->
          match bbs with
          | 0 :: _ -> true
          | _ when List.length bbs >= min_run -> true
          | _ ->
            (match Hashtbl.find_opt deferred o with
            | Some r -> r := !r @ bbs
            | None -> Hashtbl.add deferred o (ref bbs));
            false)
        runs
    in
    let runs =
      List.map
        (fun (o, bbs) ->
          match bbs with
          | 0 :: _ -> (
            match Hashtbl.find_opt deferred o with Some r -> (o, bbs @ !r) | None -> (o, bbs))
          | _ -> (o, bbs))
        runs
    in
    let next_extra : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let clusters_of : (string, (Codegen.Directive.cluster * int) list) Hashtbl.t =
      Hashtbl.create 64
    in
    let ordering = ref [] in
    List.iteri
      (fun pos (owner, bbs) ->
        let kind =
          match bbs with
          | 0 :: _ -> Codegen.Directive.Primary
          | _ ->
            let k = 1 + Option.value ~default:0 (Hashtbl.find_opt next_extra owner) in
            Hashtbl.replace next_extra owner k;
            Codegen.Directive.Extra k
        in
        let cluster = { Codegen.Directive.kind; blocks = bbs } in
        Hashtbl.replace clusters_of owner
          ((cluster, pos) :: Option.value ~default:[] (Hashtbl.find_opt clusters_of owner));
        ordering := Codegen.Directive.symbol owner cluster :: !ordering)
      runs;
    let ordering = List.rev !ordering in
    let plans =
      Hashtbl.fold
        (fun owner clusters acc ->
          let clusters = List.sort (fun (_, a) (_, b) -> compare a b) clusters in
          { Codegen.Directive.func = owner; clusters = List.map fst clusters } :: acc)
        clusters_of []
      |> List.sort (fun (a : Codegen.Directive.func_plan) b -> compare a.func b.func)
    in
    let colds =
      List.map (fun (p : Codegen.Directive.func_plan) -> Objfile.Symname.cold p.func) plans
    in
    { iplans = plans; iordering = ordering @ colds; iscore = score; global_nodes = n }
  end

(* --- analyze ----------------------------------------------------- *)

type result = {
  plans : Codegen.Directive.t;
  ordering : string list;
  hot_funcs : int;
  dcfg_blocks : int;
  dcfg_edges : int;
  layout_score : float;
  peak_mem_bytes : int;
  cpu_seconds : float;
}

let resolve_policy name = Option.get (Layout.Policy.find name)

(* [Wpa.analyze] without a layout cache or a fault plan, fanning out
   on [pool]. *)
let analyze ?(config = Propeller.Wpa.default_config) ~pool ~profile
    ~(binary : Linker.Binary.t) () =
  let profile = Propeller.Wpa.resolve_profile ~binary profile in
  let dcfg = build ~profile ~binary in
  let hot = hot_funcs dcfg in
  let dcfg_blocks = num_blocks dcfg in
  let dcfg_edges = num_edges dcfg in
  let score = ref 0.0 in
  let plans, ordering =
    match config.mode with
    | Propeller.Wpa.Intra ->
      let funcs = Array.of_list hot in
      let shapes = shapes dcfg hot in
      let insts =
        Array.map
          (fun d ->
            let bb_arr, counts = layout_prelude d in
            layout_instance shapes d bb_arr (partition counts))
          funcs
      in
      let solved =
        Layout.Policy.order_batch ~params:config.policy_params ~pool
          (resolve_policy config.layout_policy) (Array.map snd insts)
      in
      let plans =
        Array.to_list
          (Array.mapi
             (fun i (hot_arr, _) ->
               let order, s = solved.(i) in
               score := !score +. s;
               plan_of_order config dcfg funcs.(i) (List.map (fun j -> hot_arr.(j)) order))
             insts)
      in
      let primaries = function_order dcfg hot in
      let colds =
        if config.split_functions then List.map Objfile.Symname.cold primaries else []
      in
      (plans, primaries @ colds)
    | Propeller.Wpa.Interproc ->
      let r =
        interproc
          ~policy:(resolve_policy config.layout_policy)
          ~params:config.policy_params ~dcfg ~entry_func:binary.entry_symbol
      in
      score := r.iscore;
      (r.iplans, r.iordering)
  in
  let profile_bytes = Perfmon.Lbr.raw_bytes profile in
  {
    plans;
    ordering;
    hot_funcs = List.length hot;
    dcfg_blocks;
    dcfg_edges;
    layout_score = !score;
    peak_mem_bytes = Buildsys.Costmodel.wpa_mem ~profile_bytes ~dcfg_blocks ~dcfg_edges;
    cpu_seconds =
      Buildsys.Costmodel.wpa_seconds
        ~profile_edges:(Perfmon.Lbr.distinct_edges profile)
        ~dcfg_blocks;
  }
