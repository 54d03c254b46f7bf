type mode = Intra | Interproc

type config = {
  mode : mode;
  layout_policy : string;
  policy_params : Layout.Policy.params;
  split_threshold : int;
  hfsort_max_cluster : int;
  split_functions : bool;
}

let default_config =
  {
    mode = Intra;
    layout_policy = "exttsp";
    policy_params = Layout.Policy.default_params;
    split_threshold = 0;
    hfsort_max_cluster = 1 lsl 20;
    split_functions = true;
  }

(* Resolve the configured policy name against the registry; an unknown
   name is a configuration error, reported with the valid names. *)
let resolve_policy name =
  match Layout.Policy.find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "unknown layout policy %S (registered: %s)" name
         (String.concat ", " Layout.Policy.names))

(* The two profile regimes WPA can be driven by. An Lbr profile feeds
   Dcfg directly; a Sampled one is first synthesized into LBR shape
   (Autofdo) against the binary under analysis, which needs the static
   CFG topology and the sampler's period for count scaling. *)
type profile_input =
  | Lbr of Perfmon.Lbr.profile
  | Sampled of {
      samples : Perfmon.Sampler.profile;
      program : Ir.Program.t;
      period : int;
    }

let resolve_profile ~binary = function
  | Lbr p -> p
  | Sampled { samples; program; period } ->
    Autofdo.synthesize ~period ~samples ~program ~binary ()

type result = {
  plans : Codegen.Directive.t;
  ordering : string list;
  hot_funcs : int;
  dcfg_blocks : int;
  dcfg_edges : int;
  layout_score : float;
  peak_mem_bytes : int;
  cpu_seconds : float;
  layout_cache_hits : int;
  layout_cache_misses : int;
  layout_cache_evictions : int;
  shards_dropped : int;
  dropped_hot_funcs : int;
}

(* The sampled block universe of one function: sorted block ids (entry
   always included) and their execution counts, the input to hot/cold
   partitioning. *)
let layout_prelude (d : Dcfg.dfunc) =
  let bbs =
    (0 :: Hashtbl.fold (fun bb _ acc -> bb :: acc) d.dblocks [])
    |> List.sort_uniq compare
  in
  let bb_arr = Array.of_list bbs in
  let counts =
    Array.map
      (fun bb ->
        match Hashtbl.find_opt d.dblocks bb with
        | Some (b : Dcfg.mblock) -> float_of_int b.count
        | None -> 0.0)
      bb_arr
  in
  (bb_arr, counts)

(* Turn a hot/cold partition into the function's Ext-TSP instance over
   its hot blocks (sizes from the address map, edges restricted to the
   hot set). Returns the hot block ids alongside, for mapping the
   instance-index order back to block ids. *)
let layout_instance (dcfg : Dcfg.t) (d : Dcfg.dfunc) bb_arr
    (part : Layout.Split.t) =
  let hot_arr = Array.of_list (List.map (fun i -> bb_arr.(i)) part.hot) in
  let idx_of = Hashtbl.create 16 in
  Array.iteri (fun i bb -> Hashtbl.replace idx_of bb i) hot_arr;
  let sizes =
    Array.map
      (fun bb -> Option.value ~default:16 (Hashtbl.find_opt dcfg.size_of (d.dname, bb)))
      hot_arr
  in
  let weights =
    Array.map
      (fun bb ->
        match Hashtbl.find_opt d.dblocks bb with
        | Some (b : Dcfg.mblock) -> float_of_int b.count
        | None -> 0.0)
      hot_arr
  in
  let edges =
    Support.Itab.fold
      (fun key r acc ->
        let s = Support.Packed.src key and t = Support.Packed.dst key in
        match Hashtbl.find_opt idx_of s, Hashtbl.find_opt idx_of t with
        | Some si, Some ti -> (si, ti, float_of_int r) :: acc
        | None, _ | _, None -> acc)
      d.dedges []
    |> List.sort compare
  in
  let entry = Hashtbl.find idx_of 0 in
  (hot_arr, Layout.Problem.make ~sizes ~weights ~edges ~entry)

type block_layout = { blocks : int list; score : float; policy : string }

(* Layout over one function's sampled blocks under the named policy.
   Returns the hot block order, the Ext-TSP score of that order and the
   policy that produced it; shared by Propeller's WPA and the BOLT
   baseline (its cache+ algorithm is the same objective). *)
let block_layout ?(policy = "exttsp") ?(params = Layout.Policy.default_params)
    ?(split_threshold = 0) (dcfg : Dcfg.t) (d : Dcfg.dfunc) =
  let pol = resolve_policy policy in
  let bb_arr, counts = layout_prelude d in
  let part =
    Layout.Split.partition ~counts ~threshold:(float_of_int split_threshold) ()
  in
  let hot_arr, problem = layout_instance dcfg d bb_arr part in
  let order = pol.order ~params problem in
  let score = Layout.Exttsp.score ~params:params.exttsp ~order problem in
  { blocks = List.map (fun i -> hot_arr.(i)) order; score; policy }

(* Wrap a hot-block order into the function's cluster directive; the
   cold remainder becomes the implicit .cold cluster in codegen. *)
let plan_of_order config (dcfg : Dcfg.t) (d : Dcfg.dfunc) ordered_bbs =
  if config.split_functions then
    {
      Codegen.Directive.func = d.dname;
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = ordered_bbs } ];
    }
  else begin
    (* Splitting disabled: keep the whole function contiguous by
       appending unsampled blocks to the primary cluster. Blocks the
       address map knows but the profile never saw are appended in id
       order. *)
    let all_bbs = ref [] in
    Array.iter
      (fun (b : Dcfg.mblock) -> if String.equal b.owner d.dname then all_bbs := b.bb :: !all_bbs)
      dcfg.block_index;
    let rest =
      List.sort_uniq compare !all_bbs |> List.filter (fun bb -> not (List.mem bb ordered_bbs))
    in
    {
      Codegen.Directive.func = d.dname;
      clusters =
        [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks = ordered_bbs @ rest } ];
    }
  end

(* Config half of the layout key, shared by every function of one
   analysis — rendered once, not per hot function. *)
let layout_params_str config =
  let pp = config.policy_params in
  let p = pp.Layout.Policy.exttsp in
  Printf.sprintf
    "|policy=%s|fw=%d|bw=%d|ftw=%h|fww=%h|bww=%h|msc=%d|pq=%b|seed=%d|steps=%d|thr=%d|split=%b"
    config.layout_policy p.forward_window p.backward_window p.fallthrough_weight
    p.forward_weight p.backward_weight p.max_split_chain p.use_pqueue pp.seed pp.steps
    config.split_threshold config.split_functions

(* Per-function "|b<bb>:<size>" block-shape segments from the address
   map, built in one pass over the block index (the per-function scan of
   the whole index was the warm path's biggest allocator). *)
let layout_shape_strs (dcfg : Dcfg.t) =
  let owned : (string, (int * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (blk : Dcfg.mblock) ->
      match Hashtbl.find_opt owned blk.owner with
      | Some cell -> cell := (blk.bb, blk.msize) :: !cell
      | None -> Hashtbl.replace owned blk.owner (ref [ (blk.bb, blk.msize) ]))
    dcfg.block_index;
  let shapes = Hashtbl.create (Hashtbl.length owned) in
  Hashtbl.iter
    (fun owner cell ->
      let b = Buffer.create 128 in
      List.iter
        (fun (bb, sz) ->
          Buffer.add_string b "|b";
          Buffer.add_string b (string_of_int bb);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int sz))
        (List.sort compare !cell);
      Hashtbl.replace shapes owner (Buffer.contents b))
    owned;
  shapes

(* Content-addressed key of one function's layout problem: everything
   [plan_of_order (block_layout ...)] can read — the function's sampled
   counts and edges, its block shapes from the address map
   ([shape_strs], precomputed), and the layout configuration
   ([params_str], precomputed). Warm relinks whose profile deltas miss
   this function reuse the cached (plan, score) verbatim. *)
let layout_key ~params_str ~shape_strs (d : Dcfg.dfunc) =
  let b = Buffer.create 256 in
  Buffer.add_string b "layout-v1|";
  Buffer.add_string b d.dname;
  Buffer.add_string b params_str;
  (match Hashtbl.find_opt shape_strs d.dname with
  | Some s -> Buffer.add_string b s
  | None -> ());
  let sampled =
    Hashtbl.fold (fun bb (blk : Dcfg.mblock) acc -> (bb, blk.count) :: acc) d.dblocks []
    |> List.sort compare
  in
  List.iter
    (fun (bb, c) ->
      Buffer.add_string b "|c";
      Buffer.add_string b (string_of_int bb);
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int c))
    sampled;
  let edges = Support.Itab.sorted_items d.dedges in
  Array.iter
    (fun (key, w) ->
      Buffer.add_string b "|e";
      Buffer.add_string b (string_of_int (Support.Packed.src key));
      Buffer.add_char b '>';
      Buffer.add_string b (string_of_int (Support.Packed.dst key));
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int w))
    edges;
  Support.Digesting.of_string (Buffer.contents b)

let analyze ?(config = default_config) ?ctx ?layout_cache ~profile
    ~(binary : Linker.Binary.t) () =
  let profile = resolve_profile ~binary profile in
  let pool =
    match ctx with
    | Some c -> c.Support.Ctx.pool
    | None -> Support.Pool.global ()
  in
  let plan =
    match ctx with
    | Some c -> (
      match c.Support.Ctx.faults with
      | Some p when Faultsim.Plan.is_active p && p.Faultsim.Plan.shard_drop > 0.0 ->
        Some p
      | Some _ | None -> None)
    | None -> None
  in
  let cache_snapshot () =
    match layout_cache with
    | Some c -> Buildsys.Cache.(hits c, misses c, evictions c)
    | None -> (0, 0, 0)
  in
  let h0, m0, e0 = cache_snapshot () in
  let dcfg = Dcfg.build ~profile ~binary in
  let all_hot = Dcfg.hot_funcs dcfg in
  (* Graceful degradation on missing profile shards: each hot function's
     samples live in one shard of the sharded profile store; a dropped
     shard takes its functions' plans and ordering entries with it —
     they keep the baseline layout, exactly as if never sampled. The
     analysis (and the relink) always completes. *)
  let shards_dropped, hot =
    match plan with
    | None -> (0, all_hot)
    | Some p ->
      ( List.length (Faultsim.Plan.dropped_shards p),
        List.filter
          (fun (d : Dcfg.dfunc) ->
            not
              (Faultsim.Plan.shard_dropped p
                 ~shard:(Faultsim.Plan.shard_of p ~key:d.dname)))
          all_hot )
  in
  let dropped_hot_funcs = List.length all_hot - List.length hot in
  let dcfg_blocks = Dcfg.num_blocks dcfg in
  let dcfg_edges = Dcfg.num_edges dcfg in
  let score = ref 0.0 in
  let plans, ordering =
    match config.mode with
    | Intra ->
      (* Per-function layout, cached and parallel. The sequential
         skeleton (cache lookups, result commits, score accumulation)
         walks hot functions in dcfg order; only the pure per-function
         work — hot/cold partitioning and Ext-TSP — fans out on the
         pool. All floats are summed in the same order for any jobs
         width, so layout_score is bit-identical. *)
      let funcs = Array.of_list hot in
      let n = Array.length funcs in
      let params_str = layout_params_str config in
      let shape_strs = layout_shape_strs dcfg in
      let keys = Array.map (fun d -> layout_key ~params_str ~shape_strs d) funcs in
      let cached =
        Array.map
          (fun key ->
            match layout_cache with
            | Some c -> Buildsys.Cache.find c key
            | None -> None)
          keys
      in
      let miss_idx =
        Array.to_list (Array.init n Fun.id)
        |> List.filter (fun i -> Option.is_none cached.(i))
        |> Array.of_list
      in
      let preludes = Array.map (fun i -> layout_prelude funcs.(i)) miss_idx in
      let parts =
        Layout.Split.partition_batch ~pool
          ~threshold:(float_of_int config.split_threshold)
          ~counts:(Array.map snd preludes) ()
      in
      let hot_and_insts =
        Array.init (Array.length miss_idx) (fun j ->
            layout_instance dcfg funcs.(miss_idx.(j)) (fst preludes.(j)) parts.(j))
      in
      let solved =
        Layout.Policy.order_batch ~params:config.policy_params ~pool
          (resolve_policy config.layout_policy)
          (Array.map snd hot_and_insts)
      in
      let computed =
        Array.init (Array.length miss_idx) (fun j ->
            let hot_arr, _ = hot_and_insts.(j) in
            let order, s = solved.(j) in
            let d = funcs.(miss_idx.(j)) in
            (plan_of_order config dcfg d (List.map (fun i -> hot_arr.(i)) order), s))
      in
      (* Commit pass in hot-function order: store fresh results, sum
         scores, emit plans. *)
      let next_miss = ref 0 in
      let plans =
        Array.to_list
          (Array.init n (fun i ->
               let plan, s =
                 match cached.(i) with
                 | Some v -> v
                 | None ->
                   let j = !next_miss in
                   incr next_miss;
                   let v = computed.(j) in
                   (match layout_cache with
                   | Some c ->
                     Buildsys.Cache.add c keys.(i)
                       ~size:(fun (p, _) ->
                         String.length (Codegen.Directive.to_text [ p ]) + 8)
                       v
                   | None -> ());
                   v
               in
               score := !score +. s;
               plan))
      in
      (* Global function order: C3 over the hot call graph. *)
      let hot_names = Array.map (fun (d : Dcfg.dfunc) -> d.dname) funcs in
      let name_idx = Hashtbl.create 64 in
      Array.iteri (fun i nm -> Hashtbl.replace name_idx nm i) hot_names;
      let fsizes =
        Array.map
          (fun nm ->
            let d = Hashtbl.find dcfg.funcs nm in
            Hashtbl.fold (fun _ (b : Dcfg.mblock) acc -> acc + b.msize) d.dblocks 0)
          hot_names
      in
      let fsamples =
        Array.map (fun nm -> float_of_int (Hashtbl.find dcfg.funcs nm).dsamples) hot_names
      in
      let arcs =
        Dcfg.func_arcs dcfg
        |> List.filter_map (fun (caller, callee, w) ->
               match Hashtbl.find_opt name_idx caller, Hashtbl.find_opt name_idx callee with
               | Some a, Some b -> Some (a, b, w)
               | None, _ | _, None -> None)
      in
      let func_order =
        Layout.Hfsort.order ~max_cluster_size:config.hfsort_max_cluster
          (Layout.Problem.make ~sizes:fsizes ~weights:fsamples ~edges:arcs ~entry:0)
      in
      let primaries = List.map (fun i -> hot_names.(i)) func_order in
      let colds =
        if config.split_functions then List.map Objfile.Symname.cold primaries else []
      in
      (plans, primaries @ colds)
    | Interproc ->
      let r =
        Interproc.layout
          ~policy:(resolve_policy config.layout_policy)
          ~params:config.policy_params ~dcfg ~split_threshold:config.split_threshold
          ~entry_func:binary.entry_symbol
      in
      score := r.score;
      (r.plans, r.ordering)
  in
  let h1, m1, e1 = cache_snapshot () in
  let profile_bytes = Perfmon.Lbr.raw_bytes Perfmon.Lbr.default_config profile in
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
    layout_cache_hits = h1 - h0;
    layout_cache_misses = m1 - m0;
    layout_cache_evictions = e1 - e0;
    shards_dropped;
    dropped_hot_funcs;
  }
