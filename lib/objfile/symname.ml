let primary f = f

let cold f = f ^ ".cold"

let cluster f n =
  if n < 1 then invalid_arg "Symname.cluster: n must be >= 1";
  Printf.sprintf "%s.%d" f n

let is_cold s =
  String.length s > 5 && String.equal (String.sub s (String.length s - 5) 5) ".cold"

let is_numeric_suffix s i =
  let rec loop j =
    if j >= String.length s then j > i + 1
    else match s.[j] with '0' .. '9' -> loop (j + 1) | _ -> false
  in
  loop (i + 1)

let owner s =
  if is_cold s then String.sub s 0 (String.length s - 5)
  else
    match String.rindex_opt s '.' with
    | Some i when is_numeric_suffix s i -> String.sub s 0 i
    | Some _ | None -> s
