type result = {
  plans : Codegen.Directive.t;
  ordering : string list;
  score : float;
  global_nodes : int;
}

let layout ~(policy : Layout.Policy.t) ~(params : Layout.Policy.params) ~(dcfg : Dcfg.t)
    ~entry_func =
  let funcs = dcfg.funcs in
  (* Global node universe: the hot blocks of every sampled function,
     entries included, numbered in rank order. *)
  let gid = Array.make (Array.length dcfg.order) (-1) in
  let nodes = ref [] and n = ref 0 in
  Array.iteri
    (fun f d ->
      List.iter
        (fun r ->
          gid.(r) <- !n;
          incr n;
          nodes := (f, r) :: !nodes)
        (Dcfg.hot_ranks dcfg d))
    funcs;
  let node_arr = Array.of_list (List.rev !nodes) and n = !n in
  let sizes = Array.map (fun (_, r) -> (Dcfg.block dcfg r).size) node_arr in
  let weights = Array.map (fun (_, r) -> float_of_int (Dcfg.count dcfg r)) node_arr in
  (* Intra-function edges, then call arcs to the callee's entry; each
     list is sorted by (src, dst) because node numbers follow ranks. *)
  let edges_of keys counts dst_rank =
    let acc = ref [] in
    for k = Array.length keys - 1 downto 0 do
      let s = gid.(Support.Packed.src keys.(k)) and t = gid.(dst_rank keys.(k)) in
      if s >= 0 && t >= 0 then acc := (s, t, float_of_int counts.(k)) :: !acc
    done;
    !acc
  in
  let edges =
    List.merge compare
      (edges_of dcfg.edges dcfg.edge_counts Support.Packed.dst)
      (edges_of dcfg.arcs dcfg.arc_counts (fun key -> funcs.(Support.Packed.dst key).first))
  in
  let entry =
    match Array.find_index (fun (d : Dcfg.dfunc) -> String.equal d.name entry_func) funcs with
    | Some f -> gid.(funcs.(f).first)
    | None -> 0
  in
  if n = 0 then { plans = []; ordering = []; score = 0.0; global_nodes = 0 }
  else begin
    let problem = Layout.Problem.make ~sizes ~weights ~edges ~entry in
    let order = policy.order ~params problem in
    let score = Layout.Exttsp.score ~params:params.exttsp ~order problem in
    (* Cut the global order into per-function runs; each run becomes a
       placed cluster. The run containing block 0 must *start* with it
       (the function symbol marks the cluster start), so it is split
       there if needed. *)
    let runs = ref [] (* (function, blocks in order) in layout order, reversed *) in
    List.iter
      (fun g ->
        let f, r = node_arr.(g) in
        let bb = (Dcfg.block dcfg r).block in
        match !runs with
        | (f', bbs) :: rest when f' = f && bb <> 0 -> runs := (f, bb :: bbs) :: rest
        | _ -> runs := (f, [ bb ]) :: !runs)
      order;
    let runs = List.rev_map (fun (f, bbs) -> (f, List.rev bbs)) !runs in
    (* De-fragment: a placed run shorter than 3 blocks does not pay for
       the extra section, CFI fragment and long branches it costs;
       fold such non-entry runs back into their function's primary
       cluster (generating clusters "when profitable", paper 3.4). *)
    let min_run = 3 in
    let deferred = Array.make (Array.length funcs) [] in
    let runs =
      List.filter
        (fun (f, bbs) ->
          match bbs with
          | 0 :: _ -> true
          | _ when List.length bbs >= min_run -> true
          | _ ->
            deferred.(f) <- deferred.(f) @ bbs;
            false)
        runs
    in
    (* Assign cluster kinds per function in run order. *)
    let next_extra = Array.make (Array.length funcs) 0 in
    let clusters = Array.make (Array.length funcs) [] (* run order, reversed *) in
    let ordering = ref [] in
    List.iter
      (fun (f, bbs) ->
        let kind, blocks =
          match bbs with
          | 0 :: _ -> (Codegen.Directive.Primary, bbs @ deferred.(f))
          | _ ->
            next_extra.(f) <- next_extra.(f) + 1;
            (Codegen.Directive.Extra next_extra.(f), bbs)
        in
        let cluster = { Codegen.Directive.kind; blocks } in
        clusters.(f) <- cluster :: clusters.(f);
        ordering := Codegen.Directive.symbol funcs.(f).name cluster :: !ordering)
      runs;
    let plans =
      List.filter_map
        (fun f ->
          match clusters.(f) with
          | [] -> None
          | cs -> Some { Codegen.Directive.func = funcs.(f).name; clusters = List.rev cs })
        (List.init (Array.length funcs) Fun.id)
    in
    (* Cold clusters trail the ordering. *)
    let colds =
      List.map (fun (p : Codegen.Directive.func_plan) -> Objfile.Symname.cold p.func) plans
    in
    { plans; ordering = List.rev_append !ordering colds; score; global_nodes = n }
  end
