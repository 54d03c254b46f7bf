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
   size. The sweep stops early once the iterates are stable.

   The successors are laid out once in compressed sparse-row form, rows
   in sweep order: row [r] is block [order.(r)], its (successor,
   probability) pairs at [succ.(k)], [prob.(k)] for k in
   [start.(r), start.(r + 1)), in {!Term.successor_probs} order. *)
let estimate_frequencies ~use_pgo f =
  let n = Func.num_blocks f in
  let order = Array.of_list (reverse_postorder f) in
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun r b ->
      let degree =
        match (Func.block f b).Block.term with
        | Term.Jump _ -> 1
        | Term.Branch _ -> 2
        | Term.Switch { table; _ } -> Array.length table
        | Term.Return -> 0
      in
      start.(r + 1) <- start.(r) + degree)
    order;
  let succ = Array.make start.(n) 0 and prob = Array.make start.(n) 0.0 in
  Array.iteri
    (fun r b ->
      let k = start.(r) in
      match (Func.block f b).Block.term with
      | Term.Jump s ->
        succ.(k) <- s;
        prob.(k) <- 1.0
      | Term.Branch { taken; fallthrough; prob = p; pgo_prob; _ } ->
        let p = if use_pgo then pgo_prob else p in
        succ.(k) <- taken;
        prob.(k) <- p;
        succ.(k + 1) <- fallthrough;
        prob.(k + 1) <- 1.0 -. p
      | Term.Switch { table; probs; pgo_probs } ->
        Array.blit table 0 succ k (Array.length table);
        Array.blit (if use_pgo then pgo_probs else probs) 0 prob k (Array.length table)
      | Term.Return -> ())
    order;
  let freq = Array.make n 0.0 and next = Array.make n 0.0 in
  freq.(0) <- 1.0;
  let max_freq = 1.0e6 in
  let sweep = ref 1 and moving = ref true in
  while !moving && !sweep <= 24 do
    Array.fill next 0 n 0.0;
    next.(0) <- 1.0;
    for r = 0 to n - 1 do
      let fb = freq.(order.(r)) in
      for k = start.(r) to start.(r + 1) - 1 do
        let s = succ.(k) in
        (* [min max_freq v], without boxing both floats for the
           polymorphic compare. *)
        if s <> 0 then begin
          let v = next.(s) +. (fb *. prob.(k)) in
          next.(s) <- (if max_freq <= v then max_freq else v)
        end
      done
    done;
    let delta = ref 0.0 in
    for i = 0 to n - 1 do
      delta := !delta +. abs_float (next.(i) -. freq.(i));
      freq.(i) <- next.(i)
    done;
    moving := !delta > 1e-4 *. float_of_int n;
    incr sweep
  done;
  freq

(* Built back to front, so no list is reversed: block [n - 1]'s
   successors go on first, each block's in reverse. *)
let edge_frequencies ?freqs ~use_pgo f =
  let freq = match freqs with Some fr -> fr | None -> estimate_frequencies ~use_pgo f in
  let edges = ref [] in
  let add b s p = edges := (b, s, freq.(b) *. p) :: !edges in
  for b = Func.num_blocks f - 1 downto 0 do
    match (Func.block f b).Block.term with
    | Term.Jump s -> add b s 1.0
    | Term.Branch { taken; fallthrough; prob; pgo_prob; _ } ->
      let p = if use_pgo then pgo_prob else prob in
      add b fallthrough (1.0 -. p);
      add b taken p
    | Term.Switch { table; probs; pgo_probs } ->
      let probs = if use_pgo then pgo_probs else probs in
      for i = Array.length table - 1 downto 0 do
        add b table.(i) probs.(i)
      done
    | Term.Return -> ()
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
