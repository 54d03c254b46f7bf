type t = {
  name : string;
  unit_name : string;
  sections : Section.t list;
  has_inline_asm : bool;
}

let make ~name ~unit_name ?(has_inline_asm = false) sections =
  { name; unit_name; sections; has_inline_asm }

let text_sections o = List.filter Section.is_text o.sections

let find_section o name = List.find_opt (fun (s : Section.t) -> String.equal s.name name) o.sections

let defined_symbols o =
  List.filter_map
    (fun (s : Section.t) ->
      match s.symbol with Some sym -> Some (sym, s.name) | None -> None)
    o.sections

let size_by_kind o kind =
  List.fold_left
    (fun acc (s : Section.t) -> if s.kind = kind then acc + Section.size s else acc)
    0 o.sections

let total_size o = List.fold_left (fun acc s -> acc + Section.size s) 0 o.sections

let num_relocations o =
  let code_relocs =
    List.fold_left
      (fun acc s ->
        match Section.fragment s with Some f -> acc + Fragment.num_relocations f | None -> acc)
      0 o.sections
  in
  let texts = List.length (text_sections o) in
  (* Two DWARF range relocations (start/end symbol) per text section
     beyond the first of each function, see paper §4.3. *)
  code_relocs + (2 * max 0 (texts - 1))

let num_text_sections o = List.length (text_sections o)
