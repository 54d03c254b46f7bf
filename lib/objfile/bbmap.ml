type entry = {
  bb_id : int;
  offset : int;
  size : int;
  can_fallthrough : bool;
  is_landing_pad : bool;
}

type func_map = { func : string; entries : entry list }

type t = func_map list

let uleb_size v =
  let rec loop v acc = if v < 128 then acc + 1 else loop (v lsr 7) (acc + 1) in
  loop (if v < 0 then 0 else v) 0

let header_size = 9

let entry_size ~bb_id ~offset ~size =
  uleb_size bb_id + uleb_size offset + uleb_size size + 1 (* flags *)

let encoded_size t =
  List.fold_left
    (fun acc fm ->
      List.fold_left
        (fun acc e -> acc + entry_size ~bb_id:e.bb_id ~offset:e.offset ~size:e.size)
        (acc + header_size) fm.entries)
    0 t
