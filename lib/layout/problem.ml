type t = {
  sizes : int array;
  weights : float array;
  esrc : int array;
  edst : int array;
  ew : float array;
  entry : int;
}

(* Keep self-edges and weights <= 0 out, sum duplicate pairs in input
   order (so float sums are stable) and emit the edges sorted by (src,
   dst), the historical sorted-list order of [Exttsp.dedupe_edges].
   Packed keys sort exactly like (src, dst) pairs, and a stable sort of
   the kept edges' indices by key puts each pair's duplicates together
   in input order. [kept] counts the edges it keeps. *)
let dedupe ~esrc ~edst ~ew ~kept =
  let keys = Array.make kept 0 and ws = Array.make kept 0.0 in
  let i = ref 0 in
  for k = 0 to Array.length esrc - 1 do
    let src = esrc.(k) and dst = edst.(k) in
    if src <> dst && ew.(k) > 0.0 then begin
      keys.(!i) <- Support.Packed.pack ~src ~dst;
      ws.(!i) <- ew.(k);
      incr i
    end
  done;
  let idx = Array.init kept Fun.id in
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
  (esrc, edst, ew)

(* One scan checks every edge and sees whether the edges already are
   the normal form: strictly ascending (src, dst) pairs, no self-edge,
   every weight > 0. Then the dedupe would copy them unchanged, so they
   are kept as given. *)
let make ~sizes ~weights ~esrc ~edst ~ew ~entry =
  let n = Array.length sizes in
  if Array.length weights <> n then
    invalid_arg
      (Printf.sprintf "Problem.make: %d sizes but %d weights" n (Array.length weights));
  if n > 0 && (entry < 0 || entry >= n) then
    invalid_arg (Printf.sprintf "Problem.make: entry %d outside [0, %d)" entry n);
  let m = Array.length esrc in
  if Array.length edst <> m || Array.length ew <> m then
    invalid_arg
      (Printf.sprintf "Problem.make: %d edge sources, %d destinations and %d weights" m
         (Array.length edst) (Array.length ew));
  let kept = ref 0 and normal = ref true in
  for k = 0 to m - 1 do
    let src = esrc.(k) and dst = edst.(k) in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg (Printf.sprintf "Problem.make: edge %d -> %d outside [0, %d)" src dst n);
    if not (Float.is_finite ew.(k)) then
      invalid_arg (Printf.sprintf "Problem.make: edge %d -> %d has weight %g" src dst ew.(k));
    if src <> dst && ew.(k) > 0.0 then incr kept else normal := false;
    if k > 0 && not (esrc.(k - 1) < src || (esrc.(k - 1) = src && edst.(k - 1) < dst)) then
      normal := false
  done;
  if !normal then { sizes; weights; esrc; edst; ew; entry }
  else begin
    let esrc, edst, ew = dedupe ~esrc ~edst ~ew ~kept:!kept in
    { sizes; weights; esrc; edst; ew; entry }
  end

let size t = Array.length t.sizes
