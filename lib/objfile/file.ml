type t = {
  name : string;
  unit_name : string;
  sections : Section.t list;
  has_inline_asm : bool;
  digest : Support.Digesting.t;
}

(* Only has to be deterministic and sensitive to the object's shape: the
   rot the build cache detects is a flipped *stored* digest
   (Buildsys.Cache.corrupt), not adversarial tampering. *)
let content_digest ~name ~unit_name ~has_inline_asm sections =
  let module D = Support.Digesting in
  let st = D.init () in
  let str sep s = D.add_char st sep; D.add_string st s in
  let int sep n = D.add_char st sep; D.add_int st n in
  D.add_string st name;
  str '|' unit_name;
  str '|' (string_of_bool has_inline_asm);
  List.iter
    (fun (s : Section.t) ->
      str '|' s.name;
      str ':' (Section.kind_to_string s.kind);
      int ':' s.align;
      str ':' (Option.value s.symbol ~default:"");
      int ':' (Section.size s))
    sections;
  D.finish st

let make ~name ~unit_name ?(has_inline_asm = false) sections =
  {
    name;
    unit_name;
    sections;
    has_inline_asm;
    digest = content_digest ~name ~unit_name ~has_inline_asm sections;
  }

let total_size o = List.fold_left (fun acc s -> acc + Section.size s) 0 o.sections
