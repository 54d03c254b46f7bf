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

(* Where a plan's text goes: a buffer for [to_text], a digest for
   [feed], so that both write the same bytes. *)
type sink = Text of Buffer.t | Digest of Support.Digesting.state

let put_char sink c =
  match sink with Text b -> Buffer.add_char b c | Digest st -> Support.Digesting.add_char st c

let put_string sink s =
  match sink with Text b -> Buffer.add_string b s | Digest st -> Support.Digesting.add_string st s

let put_int sink n =
  match sink with
  | Text b -> Buffer.add_string b (string_of_int n)
  | Digest st -> Support.Digesting.add_int st n

let rec put_blocks sink = function
  | [] -> ()
  | b :: rest ->
    put_char sink ' ';
    put_int sink b;
    put_blocks sink rest

let rec put_clusters sink = function
  | [] -> ()
  | c :: rest ->
    put_string sink "!!";
    (match c.kind with
    | Primary -> put_string sink "primary"
    | Cold -> put_string sink "cold"
    | Extra n -> put_int sink n);
    put_blocks sink c.blocks;
    put_char sink '\n';
    put_clusters sink rest

let put_plan sink p =
  put_char sink '!';
  put_string sink p.func;
  put_char sink '\n';
  put_clusters sink p.clusters

let feed st p = put_plan (Digest st) p

let to_text t =
  let buf = Buffer.create 256 in
  List.iter (put_plan (Text buf)) t;
  Buffer.contents buf
