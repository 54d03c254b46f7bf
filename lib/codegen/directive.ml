type kind = Primary | Cold | Extra of int

type cluster = { kind : kind; blocks : int list }

type func_plan = { func : string; clusters : cluster list }

type t = func_plan list

let symbol func c =
  match c.kind with
  | Primary -> Objfile.Symname.primary func
  | Cold -> Objfile.Symname.cold func
  | Extra n -> Objfile.Symname.cluster func n

let validate ~num_blocks plan =
  let seen = Hashtbl.create 16 in
  let primaries = List.filter (fun c -> c.kind = Primary) plan.clusters in
  let check_cluster c =
    List.fold_left
      (fun acc b ->
        match acc with
        | Error _ as e -> e
        | Ok () ->
          if b < 0 || b >= num_blocks then
            Error (Printf.sprintf "%s: block %d out of range" plan.func b)
          else if Hashtbl.mem seen b then
            Error (Printf.sprintf "%s: block %d in two clusters" plan.func b)
          else begin
            Hashtbl.add seen b ();
            Ok ()
          end)
      (Ok ()) c.blocks
  in
  match primaries with
  | [ p ] -> (
    match p.blocks with
    | 0 :: _ ->
      List.fold_left
        (fun acc c -> match acc with Error _ as e -> e | Ok () -> check_cluster c)
        (Ok ()) plan.clusters
    | [] -> Error (Printf.sprintf "%s: empty primary cluster" plan.func)
    | b :: _ -> Error (Printf.sprintf "%s: primary cluster starts with block %d, not 0" plan.func b))
  | [] -> Error (Printf.sprintf "%s: no primary cluster" plan.func)
  | _ :: _ :: _ -> Error (Printf.sprintf "%s: multiple primary clusters" plan.func)

let find t func = List.find_opt (fun p -> String.equal p.func func) t

let kind_to_text = function Primary -> "primary" | Cold -> "cold" | Extra n -> string_of_int n

let to_text t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf ("!" ^ p.func ^ "\n");
      List.iter
        (fun c ->
          Buffer.add_string buf ("!!" ^ kind_to_text c.kind);
          List.iter (fun b -> Buffer.add_string buf (" " ^ string_of_int b)) c.blocks;
          Buffer.add_char buf '\n')
        p.clusters)
    t;
  Buffer.contents buf
