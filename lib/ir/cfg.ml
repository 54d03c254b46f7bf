let degree = function
  | Term.Jump _ -> 1
  | Term.Branch _ -> 2
  | Term.Switch { table; _ } -> Array.length table
  | Term.Return -> 0

(* Successor [i] of a terminator, in {!Term.successors} order. *)
let successor t i =
  match t with
  | Term.Jump s -> s
  | Term.Branch { taken; fallthrough; _ } -> if i = 0 then taken else fallthrough
  | Term.Switch { table; _ } -> table.(i)
  | Term.Return -> invalid_arg "Cfg.successor: a return has no successor"

(* The sweep order: the reverse postorder of a depth-first walk from
   the entry that visits successors in {!Term.successors} order, then
   the unreachable blocks in id order. The walk keeps an explicit stack,
   so a deep CFG cannot overflow the native one. [cursor.(b)] is the
   next successor of [b] to visit, -1 while [b] is unvisited; a block
   is pushed once, when it is first reached. Blocks are written to
   [order] as they finish, and the postorder prefix is reversed at the
   end. *)
let sweep_order f =
  let n = Func.num_blocks f in
  let order = Array.make n 0 and stack = Array.make n 0 and cursor = Array.make n (-1) in
  let top = ref 1 and finished = ref 0 in
  cursor.(0) <- 0;
  while !top > 0 do
    let b = stack.(!top - 1) in
    let term = (Func.block f b).Block.term in
    let i = cursor.(b) in
    if i < degree term then begin
      cursor.(b) <- i + 1;
      let s = successor term i in
      if cursor.(s) < 0 then begin
        cursor.(s) <- 0;
        stack.(!top) <- s;
        incr top
      end
    end
    else begin
      decr top;
      order.(!finished) <- b;
      incr finished
    end
  done;
  let reached = !finished in
  for r = 0 to (reached / 2) - 1 do
    let b = order.(r) in
    order.(r) <- order.(reached - 1 - r);
    order.(reached - 1 - r) <- b
  done;
  let r = ref reached in
  for b = 0 to n - 1 do
    if cursor.(b) < 0 then begin
      order.(!r) <- b;
      incr r
    end
  done;
  order

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
  let order = sweep_order f in
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun r b -> start.(r + 1) <- start.(r) + degree (Func.block f b).Block.term)
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

(* The number of distinct successors of a terminator. *)
let distinct_successors = function
  | Term.Jump _ -> 1
  | Term.Branch { taken; fallthrough; _ } -> if taken = fallthrough then 1 else 2
  | Term.Switch { table; _ } ->
    let d = ref 0 in
    for i = 0 to Array.length table - 1 do
      let j = ref 0 in
      while !j < i && table.(!j) <> table.(i) do
        incr j
      done;
      if !j = i then incr d
    done;
    !d
  | Term.Return -> 0

(* One pass sizes the arrays exactly; the second inserts each
   successor into its block's run, kept ascending by destination, or
   adds its weight to the entry already there. Successors arrive in
   {!Term.successors} order, so repeated ones are summed in that
   order. The weight is computed in line, so no float is boxed. *)
let edge_frequencies ~freqs ~use_pgo f =
  let n = Func.num_blocks f in
  let m = ref 0 in
  for b = 0 to n - 1 do
    m := !m + distinct_successors (Func.block f b).Block.term
  done;
  let esrc = Array.make !m 0 and edst = Array.make !m 0 and ew = Array.make !m 0.0 in
  let k = ref 0 in
  for b = 0 to n - 1 do
    let term = (Func.block f b).Block.term in
    let first = !k in
    for i = 0 to degree term - 1 do
      let s = successor term i in
      let w =
        freqs.(b)
        *.
        match term with
        | Term.Jump _ | Term.Return -> 1.0
        | Term.Branch { prob; pgo_prob; _ } ->
          let p = if use_pgo then pgo_prob else prob in
          if i = 0 then p else 1.0 -. p
        | Term.Switch { probs; pgo_probs; _ } -> (if use_pgo then pgo_probs else probs).(i)
      in
      let j = ref (!k - 1) in
      while !j >= first && edst.(!j) > s do
        decr j
      done;
      if !j >= first && edst.(!j) = s then ew.(!j) <- ew.(!j) +. w
      else begin
        for x = !k - 1 downto !j + 1 do
          edst.(x + 1) <- edst.(x);
          ew.(x + 1) <- ew.(x)
        done;
        edst.(!j + 1) <- s;
        ew.(!j + 1) <- w;
        esrc.(!k) <- b;
        incr k
      end
    done
  done;
  (esrc, edst, ew)
