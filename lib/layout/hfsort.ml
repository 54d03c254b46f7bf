type cluster = {
  mutable funcs : int list;  (** reverse layout order *)
  mutable size : int;
  mutable samples : float;
  mutable frozen : bool;
}

(* The byte cap beyond which clusters stop growing: 1 MiB. *)
let max_cluster_size = 1 lsl 20

let order (problem : Problem.t) =
  let sizes = problem.sizes and samples = problem.weights in
  let n = Array.length sizes in
  let clusters = Array.init n (fun i -> { funcs = [ i ]; size = sizes.(i); samples = samples.(i); frozen = false }) in
  let cluster_of = Array.init n (fun i -> i) in
  (* Hottest caller per callee, by summed arc weight; the first in
     (caller, callee) order wins a tie. *)
  let best_caller = Array.make n None in
  for k = 0 to Array.length problem.esrc - 1 do
    let caller = problem.esrc.(k) and callee = problem.edst.(k) and w = problem.ew.(k) in
    match best_caller.(callee) with
    | Some (_, w0) when w0 >= w -> ()
    | Some _ | None -> best_caller.(callee) <- Some (caller, w)
  done;
  (* Process functions by decreasing hotness (ties by id). *)
  let by_hotness = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare samples.(b) samples.(a) in
      if c <> 0 then c else compare a b)
    by_hotness;
  let rec find_root c = if cluster_of.(c) = c then c else find_root cluster_of.(c) in
  Array.iter
    (fun f ->
      match best_caller.(f) with
      | None -> ()
      | Some (caller, _) ->
        let cf = find_root f and cc = find_root caller in
        if cf <> cc then begin
          let a = clusters.(cc) and b = clusters.(cf) in
          if (not a.frozen) && (not b.frozen) && a.size + b.size <= max_cluster_size then begin
            (* Append the callee's cluster after the caller's. *)
            a.funcs <- b.funcs @ a.funcs;
            a.size <- a.size + b.size;
            a.samples <- a.samples +. b.samples;
            cluster_of.(cf) <- cc
          end
          else begin
            a.frozen <- true;
            b.frozen <- true
          end
        end)
    by_hotness;
  let roots = ref [] in
  for i = n - 1 downto 0 do
    if cluster_of.(i) = i then roots := i :: !roots
  done;
  let density c = if c.size = 0 then 0.0 else c.samples /. float_of_int c.size in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare (density clusters.(b)) (density clusters.(a)) in
        if c <> 0 then c else compare a b)
      !roots
  in
  List.concat_map (fun r -> List.rev clusters.(r).funcs) sorted
