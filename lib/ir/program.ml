type t = {
  name : string;
  main : string;
  units : Cunit.t list;
  by_name : (string, Func.t) Hashtbl.t;
  unit_of : (string, string) Hashtbl.t;
}

let make ~name ~main units =
  let by_name = Hashtbl.create 1024 in
  let unit_of = Hashtbl.create 1024 in
  List.iter
    (fun (u : Cunit.t) ->
      List.iter
        (fun (f : Func.t) ->
          if Hashtbl.mem by_name f.name then
            invalid_arg (Printf.sprintf "Program.make %s: duplicate function %s" name f.name);
          Hashtbl.replace by_name f.name f;
          Hashtbl.replace unit_of f.name u.name)
        u.funcs)
    units;
  if not (Hashtbl.mem by_name main) then
    invalid_arg (Printf.sprintf "Program.make %s: main %s undefined" name main);
  Hashtbl.iter
    (fun _ (f : Func.t) ->
      List.iter
        (fun (callee, _) ->
          if not (Hashtbl.mem by_name callee) then
            invalid_arg
              (Printf.sprintf "Program.make %s: %s calls undefined %s" name f.name callee))
        (Func.calls f))
    by_name;
  { name; main; units; by_name; unit_of }

let name t = t.name

let main t = t.main

let units t = t.units

let find_func t fname = Hashtbl.find_opt t.by_name fname

let find_func_exn t fname = Hashtbl.find t.by_name fname

let unit_of_func t fname = Hashtbl.find_opt t.unit_of fname

let iter_funcs t f = List.iter (fun (u : Cunit.t) -> List.iter f u.funcs) t.units

let fold_funcs t init f =
  List.fold_left (fun acc (u : Cunit.t) -> List.fold_left f acc u.funcs) init t.units

let num_funcs t = List.fold_left (fun acc u -> acc + Cunit.num_funcs u) 0 t.units

let num_blocks t = List.fold_left (fun acc u -> acc + Cunit.num_blocks u) 0 t.units

let code_bytes t = List.fold_left (fun acc u -> acc + Cunit.code_bytes u) 0 t.units
