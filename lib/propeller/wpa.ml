type mode = Intra | Interproc

type config = {
  mode : mode;
  layout_policy : string;
  policy_params : Layout.Policy.params;
  split_functions : bool;
}

let default_config =
  {
    mode = Intra;
    layout_policy = "exttsp";
    policy_params = Layout.Policy.default_params;
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
    Autofdo.synthesize ~period ~samples ~program ~binary

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
  shards_dropped : int;
  dropped_hot_funcs : int;
}

(* One function's Ext-TSP instance over its hot blocks (the sampled
   ones and the entry, which comes first) and the edges among them,
   with the blocks' ids for mapping the instance order back. Nodes are
   numbered in rank order and the DCFG's edges are sorted by rank, so
   the instance's edges come out ascending. *)
let layout_instance (t : Dcfg.t) (d : Dcfg.dfunc) =
  let hot = Array.of_list (Dcfg.hot_ranks t d) in
  let node = Array.make (d.last - d.first) (-1) in
  Array.iteri (fun i r -> node.(r - d.first) <- i) hot;
  (* Sized for every edge of the function, then trimmed to the kept ones. *)
  let esrc = Array.make (d.elast - d.efirst) 0 in
  let edst = Array.make (Array.length esrc) 0 and ew = Array.make (Array.length esrc) 0.0 in
  let m = ref 0 in
  for k = d.efirst to d.elast - 1 do
    let key = t.edges.(k) in
    let s = node.(Support.Packed.src key - d.first)
    and dst = node.(Support.Packed.dst key - d.first) in
    if s >= 0 && dst >= 0 then begin
      esrc.(!m) <- s;
      edst.(!m) <- dst;
      ew.(!m) <- float_of_int t.edge_counts.(k);
      incr m
    end
  done;
  let esrc = Array.sub esrc 0 !m and edst = Array.sub edst 0 !m and ew = Array.sub ew 0 !m in
  ( Array.map (fun r -> (Dcfg.block t r).block) hot,
    Layout.Problem.make
      ~sizes:(Array.map (fun r -> (Dcfg.block t r).size) hot)
      ~weights:(Array.map (fun r -> float_of_int (Dcfg.count t r)) hot)
      ~esrc ~edst ~ew ~entry:0 )

(* Ext-TSP layout over one function's hot blocks; the BOLT baseline's
   (its cache+ algorithm is the same objective). *)
let block_layout t d =
  let bbs, problem = layout_instance t d in
  List.map (fun i -> bbs.(i)) (Layout.Exttsp.order problem)

(* Wrap a hot-block order into the function's cluster directive; the
   cold remainder becomes the implicit .cold cluster in codegen. *)
let plan_of_order config (dcfg : Dcfg.t) (d : Dcfg.dfunc) ordered_bbs =
  let blocks =
    if config.split_functions then ordered_bbs
    else begin
      (* Splitting disabled: keep the whole function contiguous by
         appending the blocks the address map knows but the profile
         never saw, in id order. *)
      let rest = ref [] in
      for r = d.last - 1 downto d.first do
        let bb = (Dcfg.block dcfg r).block in
        if not (List.mem bb ordered_bbs) then rest := bb :: !rest
      done;
      ordered_bbs @ !rest
    end
  in
  {
    Codegen.Directive.func = d.name;
    clusters = [ { Codegen.Directive.kind = Codegen.Directive.Primary; blocks } ];
  }

(* Config half of the layout key, shared by every function of one
   analysis — rendered once, not per hot function. [thr=0] names the
   cold-block threshold, a constant: every sampled block is hot. It
   stays in the string, so the pinned layout keys hold. *)
let layout_params_str config =
  let pp = config.policy_params in
  let p = pp.Layout.Policy.exttsp in
  Printf.sprintf
    "|policy=%s|fw=%d|bw=%d|ftw=%h|fww=%h|bww=%h|msc=%d|pq=%b|seed=%d|steps=%d|thr=0|split=%b"
    config.layout_policy p.forward_window p.backward_window p.fallthrough_weight
    p.forward_weight p.backward_weight p.max_split_chain p.use_pqueue pp.seed pp.steps
    config.split_functions

(* Content-addressed key of one function's layout problem: everything
   [plan_of_order (block_layout ...)] can read — the shape of every
   block the address map gives the function, its sampled counts and
   edges, and the layout configuration ([params_str], precomputed).
   Warm relinks whose profile deltas miss this function reuse the
   cached (plan, score) verbatim. *)
let layout_key ~params_str (t : Dcfg.t) (d : Dcfg.dfunc) =
  let module D = Support.Digesting in
  let st = D.init () in
  let item tag x sep y =
    D.add_string st tag;
    D.add_int st x;
    D.add_char st sep;
    D.add_int st y
  in
  D.add_string st "layout-v1|";
  D.add_string st d.name;
  D.add_string st params_str;
  for r = d.first to d.last - 1 do
    let b = Dcfg.block t r in
    item "|b" b.block ':' b.size
  done;
  for r = d.first to d.last - 1 do
    let c = Dcfg.count t r in
    if c > 0 then item "|c" (Dcfg.block t r).block ':' c
  done;
  for k = d.efirst to d.elast - 1 do
    let key = t.edges.(k) in
    item "|e" (Dcfg.block t (Support.Packed.src key)).block '>'
      (Dcfg.block t (Support.Packed.dst key)).block;
    D.add_char st ':';
    D.add_int st t.edge_counts.(k)
  done;
  D.finish st

let analyze ?(config = default_config) ~ctx ?layout_cache ~profile
    ~(binary : Linker.Binary.t) () =
  let profile = resolve_profile ~binary profile in
  let pool = ctx.Support.Ctx.pool in
  let plan =
    match ctx.Support.Ctx.faults with
    | Some p when Faultsim.Plan.is_active p && p.Faultsim.Plan.shard_drop > 0.0 -> Some p
    | Some _ | None -> None
  in
  let cache_snapshot () =
    match layout_cache with
    | Some c -> Buildsys.Cache.(hits c, misses c)
    | None -> (0, 0)
  in
  let h0, m0 = cache_snapshot () in
  let dcfg = Dcfg.build ~profile ~binary in
  let all_hot = Array.to_list dcfg.funcs in
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
              (Faultsim.Plan.shard_dropped p ~shard:(Faultsim.Plan.shard_of p ~key:d.name)))
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
         work, Ext-TSP, fans out on the pool. All floats are summed in
         the same order for any jobs width, so layout_score is
         bit-identical. *)
      let funcs = Array.of_list hot in
      let n = Array.length funcs in
      let params_str = layout_params_str config in
      let keys = Array.map (layout_key ~params_str dcfg) funcs in
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
      let insts = Array.map (fun i -> layout_instance dcfg funcs.(i)) miss_idx in
      let solved =
        Layout.Policy.order_batch ~params:config.policy_params ~pool
          (resolve_policy config.layout_policy)
          (Array.map snd insts)
      in
      let computed =
        Array.mapi
          (fun j (bbs, _) ->
            let order, s = solved.(j) in
            (plan_of_order config dcfg funcs.(miss_idx.(j)) (List.map (fun i -> bbs.(i)) order), s))
          insts
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
      let primaries = Dcfg.function_order dcfg hot in
      let colds =
        if config.split_functions then List.map Objfile.Symname.cold primaries else []
      in
      (plans, primaries @ colds)
    | Interproc ->
      let r =
        Interproc.layout
          ~policy:(resolve_policy config.layout_policy)
          ~params:config.policy_params ~dcfg ~entry_func:binary.entry_symbol
      in
      score := r.score;
      (r.plans, r.ordering)
  in
  let h1, m1 = cache_snapshot () in
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
    layout_cache_hits = h1 - h0;
    layout_cache_misses = m1 - m0;
    shards_dropped;
    dropped_hot_funcs;
  }
