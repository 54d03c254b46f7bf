type t = {
  name : string;
  unit_name : string;
  sections : Section.t list;
  has_inline_asm : bool;
}

let make ~name ~unit_name ?(has_inline_asm = false) sections =
  { name; unit_name; sections; has_inline_asm }

let total_size o = List.fold_left (fun acc s -> acc + Section.size s) 0 o.sections
