type flat = { esrc : int array; edst : int array; ew : float array }

type t = {
  sizes : int array;
  weights : float array;
  edges : (int * int * float) list;
  entry : int;
  mutable flat_cache : flat option;
  mutable total_cache : float option;
}

let make ~sizes ~weights ~edges ~entry =
  let n = Array.length sizes in
  if Array.length weights <> n then
    invalid_arg
      (Printf.sprintf "Problem.make: %d sizes but %d weights" n (Array.length weights));
  if n > 0 && (entry < 0 || entry >= n) then
    invalid_arg (Printf.sprintf "Problem.make: entry %d outside [0, %d)" entry n);
  List.iter
    (fun (src, dst, w) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg (Printf.sprintf "Problem.make: edge %d -> %d outside [0, %d)" src dst n);
      if not (Float.is_finite w) then
        invalid_arg (Printf.sprintf "Problem.make: edge %d -> %d has weight %g" src dst w))
    edges;
  { sizes; weights; edges; entry; flat_cache = None; total_cache = None }

let size t = Array.length t.sizes

(* Keep self-edges and weights <= 0 out, sum duplicate pairs in input
   order (so float sums are stable) and emit a bundle sorted by (src,
   dst) — the historical sorted-list order of [Exttsp.dedupe_edges].
   Packed keys sort exactly like (src, dst) pairs, and a stable sort of
   the kept edges' indices by key puts each pair's duplicates together
   in input order. *)
let dedupe edges =
  let m =
    List.fold_left (fun m (src, dst, w) -> if src <> dst && w > 0.0 then m + 1 else m) 0 edges
  in
  let keys = Array.make m 0 and ws = Array.make m 0.0 in
  let i = ref 0 in
  List.iter
    (fun (src, dst, w) ->
      if src <> dst && w > 0.0 then begin
        keys.(!i) <- Support.Packed.pack ~src ~dst;
        ws.(!i) <- w;
        incr i
      end)
    edges;
  let idx = Array.init m Fun.id in
  Array.stable_sort (fun x y -> Int.compare keys.(x) keys.(y)) idx;
  let distinct = ref 0 in
  Array.iteri (fun j x -> if j = 0 || keys.(x) <> keys.(idx.(j - 1)) then incr distinct) idx;
  let esrc = Array.make !distinct 0 and edst = Array.make !distinct 0 in
  let ew = Array.make !distinct 0.0 in
  let d = ref (-1) in
  Array.iteri
    (fun j x ->
      if j = 0 || keys.(x) <> keys.(idx.(j - 1)) then begin
        incr d;
        esrc.(!d) <- Support.Packed.src keys.(x);
        edst.(!d) <- Support.Packed.dst keys.(x);
        ew.(!d) <- ws.(x)
      end
      else ew.(!d) <- ew.(!d) +. ws.(x))
    idx;
  { esrc; edst; ew }

let flat t =
  match t.flat_cache with
  | Some f -> f
  | None ->
    let f = dedupe t.edges in
    t.flat_cache <- Some f;
    f

let total_weight t =
  match t.total_cache with
  | Some w -> w
  | None ->
    let w =
      List.fold_left (fun acc (src, dst, w) -> if src <> dst then acc +. w else acc) 0.0 t.edges
    in
    t.total_cache <- Some w;
    w
