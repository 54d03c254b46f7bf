type path = { pfunc : string; blocks : int list; weight : int }

(* Residual out-edge adjacency for one function, by source block:
   blocks are numbered by their place in the function's rank range, so
   in block id order, and each source lists its (dst, residual count)
   cells in dst order, which makes the max-edge scan deterministic. *)
let adjacency (dcfg : Propeller.Dcfg.t) (d : Propeller.Dcfg.dfunc) =
  let out = Array.make (d.last - d.first) [] in
  for k = d.elast - 1 downto d.efirst do
    let n = dcfg.edge_counts.(k) in
    if n > 0 then begin
      let s = Support.Packed.src dcfg.edges.(k) - d.first in
      out.(s) <- (Support.Packed.dst dcfg.edges.(k) - d.first, ref n) :: out.(s)
    end
  done;
  out

let best_out out src =
  List.fold_left
    (fun acc (dst, r) ->
      if !r <= 0 then acc
      else begin
        match acc with
        | Some (_, best) when !best >= !r -> acc
        | _ -> Some (dst, r)
      end)
    None out.(src)

(* The heaviest residual edge overall decides where a decomposition
   round starts when the entry block has drained; ties go to the lowest
   source. *)
let heaviest_source out =
  let best = ref None in
  Array.iteri
    (fun src cell ->
      List.iter
        (fun (_, r) ->
          match !best with
          | Some (_, w) when w >= !r -> ()
          | _ -> if !r > 0 then best := Some (src, !r))
        cell)
    out;
  !best

let decompose ~max_paths ~max_len dcfg (d : Propeller.Dcfg.dfunc) =
  let out = adjacency dcfg d in
  let bb i = (Propeller.Dcfg.block dcfg (d.first + i)).block in
  (* The entry block, bb 0, is the function's first. *)
  let entry = 0 in
  let paths = ref [] in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < max_paths do
    incr rounds;
    let start =
      match best_out out entry with
      | Some _ -> Some entry
      | None -> Option.map fst (heaviest_source out)
    in
    match start with
    | None -> continue := false
    | Some start ->
      let visited = Array.make (Array.length out) false in
      visited.(start) <- true;
      let rec walk src acc_blocks acc_edges len =
        if len >= max_len then (List.rev acc_blocks, acc_edges)
        else begin
          match best_out out src with
          | None -> (List.rev acc_blocks, acc_edges)
          | Some (dst, r) ->
            if visited.(dst) then (List.rev acc_blocks, acc_edges)
            else begin
              visited.(dst) <- true;
              walk dst (dst :: acc_blocks) (r :: acc_edges) (len + 1)
            end
        end
      in
      let blocks, edges = walk start [ start ] [] 1 in
      (match edges with
      | [] -> continue := false
      | _ ->
        let weight = List.fold_left (fun acc r -> min acc !r) max_int edges in
        List.iter (fun r -> r := !r - weight) edges;
        paths := { pfunc = d.name; blocks = List.map bb blocks; weight } :: !paths)
  done;
  List.rev !paths

let extract ?(max_paths_per_func = 10) ?(max_len = 64) (dcfg : Propeller.Dcfg.t) =
  Array.to_list dcfg.funcs
  |> List.concat_map (decompose ~max_paths:max_paths_per_func ~max_len dcfg)
  |> List.sort (fun a b ->
         match compare b.weight a.weight with
         | 0 -> (
           match String.compare a.pfunc b.pfunc with 0 -> compare a.blocks b.blocks | c -> c)
         | c -> c)

let folded_frames p =
  String.concat ";" (p.pfunc :: List.map (fun b -> "b" ^ string_of_int b) p.blocks)

let to_folded paths =
  Obs.Folded.to_string (List.map (fun p -> (folded_frames p, p.weight)) paths)

let to_json paths =
  Obs.Json.Obj
    [
      ("tool", Obs.Json.String "propeller_inspect");
      ("view", Obs.Json.String "paths");
      ("num_paths", Obs.Json.Int (List.length paths));
      ( "paths",
        Obs.Json.List
          (List.map
             (fun p ->
               Obs.Json.Obj
                 [
                   ("func", Obs.Json.String p.pfunc);
                   ("blocks", Obs.Json.List (List.map (fun b -> Obs.Json.Int b) p.blocks));
                   ("weight", Obs.Json.Int p.weight);
                   ("folded", Obs.Json.String (folded_frames p));
                 ])
             paths) );
    ]
