let successors f b = Term.successors (Func.block f b).term

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

(* Damped fixpoint over edge probabilities. Loop back-edges would need a
   linear solve for exactness; a couple dozen sweeps in reverse postorder
   converge well enough for layout heuristics while staying linear in CFG
   size. The sweep stops early once the iterates are stable.

   The successors are laid out once in compressed sparse-row form, rows
   in sweep order: row [r] is block [order.(r)], its (successor,
   probability) pairs at [succ.(k)], [prob.(k)] for k in
   [start.(r), start.(r + 1)), in {!Term.successors} order. *)
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
let edge_frequencies ~freqs ~use_pgo f =
  let edges = ref [] in
  let add b s p = edges := (b, s, freqs.(b) *. p) :: !edges in
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
