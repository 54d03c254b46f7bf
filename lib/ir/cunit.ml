type t = { name : string; funcs : Func.t list; rodata : int; data : int }

let make ~name ?(rodata = 0) ?(data = 0) funcs =
  if funcs = [] then invalid_arg (Printf.sprintf "Cunit.make %s: empty unit" name);
  { name; funcs; rodata; data }

let code_bytes u = List.fold_left (fun acc f -> acc + Func.code_bytes f) 0 u.funcs

let num_funcs u = List.length u.funcs

let num_blocks u = List.fold_left (fun acc f -> acc + Func.num_blocks f) 0 u.funcs

let rec mem_funcs fname = function
  | [] -> false
  | (f : Func.t) :: rest -> String.equal f.name fname || mem_funcs fname rest

let mem u fname = mem_funcs fname u.funcs
