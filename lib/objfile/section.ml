type kind = Text | Bb_addr_map | Eh_frame | Rela | Rodata | Data | Debug | Symtab

type contents = Code of Fragment.t | Map of Bbmap.t | Raw of int

type t = {
  name : string;
  kind : kind;
  align : int;
  symbol : string option;
  contents : contents;
}

let make ~name ~kind ?(align = 16) ?symbol contents = { name; kind; align; symbol; contents }

let size s =
  match s.contents with
  | Code f -> Fragment.byte_size f
  | Map m -> Bbmap.encoded_size m
  | Raw n -> n

let is_text s = s.kind = Text

let kind_to_string = function
  | Text -> "text"
  | Bb_addr_map -> "bb_addr_map"
  | Eh_frame -> "eh_frame"
  | Rela -> "rela"
  | Rodata -> "rodata"
  | Data -> "data"
  | Debug -> "debug"
  | Symtab -> "symtab"
