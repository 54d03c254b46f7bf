type params = { exttsp : Exttsp.params; seed : int; steps : int }

let default_params = { exttsp = Exttsp.default_params; seed = 1; steps = 256 }

type t = { name : string; order : ?params:params -> Problem.t -> int list }

let exttsp_order ?(params = default_params) p = Exttsp.order ~params:params.exttsp p

let exttsp_linear_order ?(params = default_params) p =
  Exttsp.order ~params:{ params.exttsp with use_pqueue = false } p

(* Seeded local search: start from the Ext-TSP layout and propose
   [steps] random swap / segment-move / segment-reverse mutations of
   the non-entry suffix, keeping strict improvements. Monotone in the
   objective, so it never scores below its Ext-TSP seed. *)
let local_search_order ?(params = default_params) (p : Problem.t) =
  let base = Exttsp.order ~params:params.exttsp p in
  let n = Problem.size p in
  if n <= 2 then base
  else begin
    (* Whole-arrangement Ext-TSP score, allocation-free per evaluation. *)
    let scratch = Exttsp.scratch n in
    let score arr = Exttsp.score_into ~params:params.exttsp scratch p arr in
    let arr = Array.of_list base in
    let rng = Support.Rng.split (Support.Rng.create (Int64.of_int params.seed)) 0x10ca1 in
    let s = ref (score arr) in
    let swap i j =
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    in
    let reverse i j =
      let a = ref i and b = ref j in
      while !a < !b do
        swap !a !b;
        incr a;
        decr b
      done
    in
    (* Move arr.(i) to position j, shifting the segment between. Its own
       inverse is moving back from j to i. *)
    let move i j =
      let v = arr.(i) in
      if i < j then Array.blit arr (i + 1) arr i (j - i)
      else Array.blit arr j arr (j + 1) (i - j);
      arr.(j) <- v
    in
    for _ = 1 to max 1 params.steps do
      let i = 1 + Support.Rng.int rng (n - 1) in
      let j = 1 + Support.Rng.int rng (n - 1) in
      if i <> j then begin
        let kind = Support.Rng.int rng 3 in
        (match kind with
        | 0 -> swap i j
        | 1 -> move i j
        | _ -> reverse (min i j) (max i j));
        let s' = score arr in
        if s' > !s then s := s'
        else
          match kind with
          | 0 -> swap i j
          | 1 -> move j i
          | _ -> reverse (min i j) (max i j)
      end
    done;
    Array.to_list arr
  end

let all =
  [
    { name = "exttsp"; order = exttsp_order };
    { name = "exttsp-linear"; order = exttsp_linear_order };
    { name = "local-search"; order = local_search_order };
  ]

let names = List.map (fun p -> p.name) all

let find name = List.find_opt (fun p -> p.name = name) all

let order_batch ?(params = default_params) ~pool policy problems =
  Support.Pool.map_array pool (Array.length problems) (fun i ->
      let p = problems.(i) in
      let o = policy.order ~params p in
      let s = Exttsp.score ~params:params.exttsp ~order:o p in
      (o, s))
