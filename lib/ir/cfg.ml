let successors f b = Term.successors (Func.block f b).term

let predecessors f =
  let n = Func.num_blocks f in
  let preds = Array.make n [] in
  for b = n - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) (successors f b)
  done;
  preds

let reverse_postorder f =
  let n = Func.num_blocks f in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (successors f b);
      order := b :: !order
    end
  in
  dfs 0;
  let unreachable = ref [] in
  for b = n - 1 downto 0 do
    if not visited.(b) then unreachable := b :: !unreachable
  done;
  !order @ !unreachable

let reachable f =
  let n = Func.num_blocks f in
  let visited = Array.make n false in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs (successors f b)
    end
  in
  dfs 0;
  visited

(* Damped fixpoint over edge probabilities. Loop back-edges would need a
   linear solve for exactness; a couple dozen sweeps in reverse postorder
   converge well enough for layout heuristics while staying linear in CFG
   size. The sweep stops early once the iterates are stable. *)
let estimate_frequencies ~use_pgo f =
  let n = Func.num_blocks f in
  let freq = Array.make n 0.0 in
  freq.(0) <- 1.0;
  let probs_of b =
    let term = (Func.block f b).Block.term in
    if use_pgo then Term.successor_pgo_probs term else Term.successor_probs term
  in
  let probs = Array.init n probs_of in
  let order = Array.of_list (reverse_postorder f) in
  let max_freq = 1.0e6 in
  let next = Array.make n 0.0 in
  let rec sweep k =
    if k > 24 then ()
    else begin
      Array.fill next 0 n 0.0;
      next.(0) <- 1.0;
      Array.iter
        (fun b ->
          List.iter
            (fun (s, p) ->
              (* [min max_freq v], without boxing both floats for the
                 polymorphic compare. *)
              if s <> 0 then begin
                let v = next.(s) +. (freq.(b) *. p) in
                next.(s) <- (if max_freq <= v then max_freq else v)
              end)
            probs.(b))
        order;
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        delta := !delta +. abs_float (next.(i) -. freq.(i));
        freq.(i) <- next.(i)
      done;
      if !delta > 1e-4 *. float_of_int n then sweep (k + 1)
    end
  in
  sweep 1;
  freq

let edge_frequencies ?freqs ~use_pgo f =
  let freq = match freqs with Some fr -> fr | None -> estimate_frequencies ~use_pgo f in
  let edges = ref [] in
  for b = Func.num_blocks f - 1 downto 0 do
    let term = (Func.block f b).Block.term in
    let probs = if use_pgo then Term.successor_pgo_probs term else Term.successor_probs term in
    List.iter (fun (s, p) -> edges := (b, s, freq.(b) *. p) :: !edges) (List.rev probs)
  done;
  !edges

(* Cooper-Harvey-Kennedy iterative dominators over the reverse postorder. *)
let immediate_dominators f =
  let n = Func.num_blocks f in
  let rpo = Array.of_list (reverse_postorder f) in
  let reach = reachable f in
  let rpo_pos = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_pos.(b) <- i) rpo;
  let preds = predecessors f in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect a b =
    (* Walk up the (partially built) dominator tree in rpo positions. *)
    let rec go a b =
      if a = b then a
      else if rpo_pos.(a) > rpo_pos.(b) then go idom.(a) b
      else go a idom.(b)
    in
    go a b
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 && reach.(b) then begin
          let processed = List.filter (fun p -> reach.(p) && idom.(p) >= 0) preds.(b) in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(b) <> new_idom then begin
              idom.(b) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom

let dominates f a b =
  let idom = immediate_dominators f in
  if idom.(b) < 0 || idom.(a) < 0 then false
  else begin
    let rec up x = if x = a then true else if x = 0 then a = 0 else up idom.(x) in
    up b
  end

let loop_headers f =
  let idom = immediate_dominators f in
  let doms_of b =
    (* The set of dominators of b, by walking idoms. *)
    let rec up x acc = if x = 0 then 0 :: acc else up idom.(x) (x :: acc) in
    if idom.(b) < 0 then [] else up b []
  in
  let headers = Hashtbl.create 8 in
  for b = 0 to Func.num_blocks f - 1 do
    if idom.(b) >= 0 then begin
      let doms = doms_of b in
      List.iter
        (fun s -> if List.mem s doms then Hashtbl.replace headers s ())
        (successors f b)
    end
  done;
  Hashtbl.fold (fun h () acc -> h :: acc) headers [] |> List.sort compare
