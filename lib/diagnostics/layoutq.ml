type t = {
  exttsp_score : float;
  exttsp_norm : float;
  edge_weight : int;
  fall_through_weight : int;
  fall_through_rate : float;
  hot_funcs_scored : int;
  blocks_missing : int;
}

(* Score one hot function: nodes are its sampled blocks that the final
   binary placed, ordered by final address; sizes are final (relaxed)
   sizes; edges are the profiled intra-function transfers. Returns
   (score, edge_weight, fall_through_weight, missing_blocks,
   placed_blocks). *)
let score_func params (final : Linker.Binary.t) (dcfg : Propeller.Dcfg.t)
    (d : Propeller.Dcfg.dfunc) =
  let placed = ref [] in
  let missing = ref 0 in
  for r = d.last - 1 downto d.first do
    if Propeller.Dcfg.count dcfg r > 0 then begin
      match Linker.Binary.block_info final ~func:d.name ~block:(Propeller.Dcfg.block dcfg r).block with
      | Some info -> placed := (r, info) :: !placed
      | None -> incr missing
    end
  done;
  let placed =
    List.stable_sort
      (fun (_, (a : Linker.Binary.block_info)) (_, (b : Linker.Binary.block_info)) ->
        compare a.addr b.addr)
      !placed
  in
  match placed with
  | [] -> (0.0, 0, 0, !missing, 0)
  | _ ->
    let n = List.length placed in
    let index = Array.make (d.last - d.first) (-1) in
    List.iteri (fun i (r, _) -> index.(r - d.first) <- i) placed;
    let sizes = Array.make n 0 in
    let addr_of = Array.make n 0 in
    List.iteri
      (fun i (_, (info : Linker.Binary.block_info)) ->
        sizes.(i) <- info.size;
        addr_of.(i) <- info.addr)
      placed;
    let edges = ref [] in
    let edge_weight = ref 0 in
    let fall_through = ref 0 in
    for k = d.efirst to d.elast - 1 do
      let src = Support.Packed.src dcfg.edges.(k) and dst = Support.Packed.dst dcfg.edges.(k) in
      let cnt = dcfg.edge_counts.(k) in
      if src <> dst then begin
        let s = index.(src - d.first) and t = index.(dst - d.first) in
        if s >= 0 && t >= 0 then begin
          edges := (s, t, float_of_int cnt) :: !edges;
          edge_weight := !edge_weight + cnt;
          if addr_of.(t) = addr_of.(s) + sizes.(s) then fall_through := !fall_through + cnt
        end
      end
    done;
    let edges = List.sort compare !edges in
    let order = List.init n Fun.id in
    let problem = Layout.Problem.make ~sizes ~weights:(Array.make n 0.0) ~edges ~entry:0 in
    let score = Layout.Exttsp.score ~params ~order problem in
    (score, !edge_weight, !fall_through, !missing, n)

let analyze ?(params = Layout.Exttsp.default_params) ~(dcfg : Propeller.Dcfg.t)
    ~(final : Linker.Binary.t) () =
  let score = ref 0.0 in
  let edge_weight = ref 0 in
  let fall_through = ref 0 in
  let missing = ref 0 in
  let scored = ref 0 in
  Array.iter
    (fun d ->
      let s, w, ft, m, placed = score_func params final dcfg d in
      if placed > 0 then incr scored;
      score := !score +. s;
      edge_weight := !edge_weight + w;
      fall_through := !fall_through + ft;
      missing := !missing + m)
    dcfg.Propeller.Dcfg.funcs;
  let fw = float_of_int !edge_weight in
  {
    exttsp_score = !score;
    exttsp_norm = (if fw > 0.0 then !score /. fw else 0.0);
    edge_weight = !edge_weight;
    fall_through_weight = !fall_through;
    fall_through_rate = (if fw > 0.0 then float_of_int !fall_through /. fw else 0.0);
    hot_funcs_scored = !scored;
    blocks_missing = !missing;
  }

let to_json l =
  Obs.Json.Obj
    [
      ("exttsp_score", Obs.Json.Float l.exttsp_score);
      ("exttsp_norm", Obs.Json.Float l.exttsp_norm);
      ("edge_weight", Obs.Json.Int l.edge_weight);
      ("fall_through_weight", Obs.Json.Int l.fall_through_weight);
      ("fall_through_rate", Obs.Json.Float l.fall_through_rate);
      ("hot_funcs_scored", Obs.Json.Int l.hot_funcs_scored);
      ("blocks_missing", Obs.Json.Int l.blocks_missing);
    ]
