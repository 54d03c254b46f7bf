type result = {
  plans : Codegen.Directive.t;
  ordering : string list;
  score : float;
  global_nodes : int;
}

let layout ~(policy : Layout.Policy.t) ~(params : Layout.Policy.params) ~(dcfg : Dcfg.t)
    ~split_threshold ~entry_func =
  let hot = Dcfg.hot_funcs dcfg in
  let shapes = Dcfg.shapes dcfg hot in
  (* Global node universe: hot blocks of hot functions; entries always
     included. *)
  let nodes = ref [] in
  let gid : (string * int, int) Hashtbl.t = Hashtbl.create 4096 in
  let add owner bb size weight =
    if not (Hashtbl.mem gid (owner, bb)) then begin
      Hashtbl.replace gid (owner, bb) (Hashtbl.length gid);
      nodes := (owner, bb, size, weight) :: !nodes
    end
  in
  List.iter
    (fun (d : Dcfg.dfunc) ->
      let bbs =
        Hashtbl.fold
          (fun bb (b : Dcfg.mblock) acc ->
            if bb = 0 || b.count > split_threshold then (bb, b) :: acc else acc)
          d.dblocks []
        |> List.sort compare
      in
      let bbs =
        if List.exists (fun (bb, _) -> bb = 0) bbs then bbs
        else
          (0, { Dcfg.lo = 0; msize = Dcfg.block_size shapes d.dname 0; owner = d.dname; bb = 0; count = 0 })
          :: bbs
      in
      List.iter (fun (bb, (b : Dcfg.mblock)) -> add d.dname bb b.msize (float_of_int b.count)) bbs)
    hot;
  let node_arr = Array.of_list (List.rev !nodes) in
  let n = Array.length node_arr in
  let sizes = Array.map (fun (_, _, s, _) -> s) node_arr in
  let weights = Array.map (fun (_, _, _, w) -> w) node_arr in
  let edges = ref [] in
  List.iter
    (fun (d : Dcfg.dfunc) ->
      Support.Itab.iter
        (fun key r ->
          let s = Support.Packed.src key and t = Support.Packed.dst key in
          match Hashtbl.find_opt gid (d.dname, s), Hashtbl.find_opt gid (d.dname, t) with
          | Some si, Some ti -> edges := (si, ti, float_of_int r) :: !edges
          | None, _ | _, None -> ())
        d.dedges)
    hot;
  Hashtbl.iter
    (fun (caller, caller_bb, callee) r ->
      match Hashtbl.find_opt gid (caller, caller_bb), Hashtbl.find_opt gid (callee, 0) with
      | Some si, Some ti -> edges := (si, ti, float_of_int !r) :: !edges
      | None, _ | _, None -> ())
    dcfg.call_arcs;
  let edges = List.sort compare !edges in
  let entry =
    match Hashtbl.find_opt gid (entry_func, 0) with
    | Some e -> e
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
    let runs = ref [] (* (owner, blocks in order) in layout order, reversed *) in
    List.iter
      (fun g ->
        let owner, bb, _, _ = node_arr.(g) in
        match !runs with
        | (o, bbs) :: rest when String.equal o owner && bb <> 0 ->
          runs := (o, bb :: bbs) :: rest
        | _ -> runs := (owner, [ bb ]) :: !runs)
      (List.map Fun.id order);
    let runs = List.rev_map (fun (o, bbs) -> (o, List.rev bbs)) !runs in
    (* De-fragment: a placed run shorter than 3 blocks does not pay for
       the extra section, CFI fragment and long branches it costs;
       fold such non-entry runs back into their function's primary
       cluster (generating clusters "when profitable", paper 3.4). *)
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
            match Hashtbl.find_opt deferred o with
            | Some r -> (o, bbs @ !r)
            | None -> (o, bbs))
          | _ -> (o, bbs))
        runs
    in
    (* Assign cluster kinds per function in run order. *)
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
    (* Cold clusters trail the ordering. *)
    let colds = List.map (fun (p : Codegen.Directive.func_plan) -> Objfile.Symname.cold p.func) plans in
    { plans; ordering = ordering @ colds; score; global_nodes = n }
  end
