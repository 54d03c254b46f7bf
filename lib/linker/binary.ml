type block_info = { func : string; block : int; addr : int; size : int; insts : Isa.t list }

type placed = {
  name : string;
  kind : Objfile.Section.kind;
  addr : int;
  size : int;
  symbol : string option;
}

type t = {
  name : string;
  entry_symbol : string;
  sections : placed list;
  symbols : (string, int) Hashtbl.t;
  blocks : (string * int, block_info) Hashtbl.t;
  text_start : int;
  text_end : int;
  bb_maps : Objfile.Bbmap.t;
  by_addr : index;
}

(* Built on first use. Domains that race to build it compute equal
   arrays, so whichever store wins is the same index. *)
and index = block_info array option Atomic.t

let make ~name ~entry_symbol ~sections ~symbols ~blocks ~text_start ~text_end ~bb_maps =
  { name; entry_symbol; sections; symbols; blocks; text_start; text_end; bb_maps;
    by_addr = Atomic.make None }

let symbol_addr t s = Hashtbl.find_opt t.symbols s

let block_info t ~func ~block = Hashtbl.find_opt t.blocks (func, block)

let block_info_exn t ~func ~block = Hashtbl.find t.blocks (func, block)

let size_of_kind t kind =
  List.fold_left (fun acc p -> if p.kind = kind then acc + p.size else acc) 0 t.sections

let total_size t = List.fold_left (fun acc p -> acc + p.size) 0 t.sections

let text_bytes t = size_of_kind t Objfile.Section.Text

let num_symbols t = Hashtbl.length t.symbols

(* The blocks sorted by address, for address lookups. Blocks at equal
   addresses (emptied by relaxation) keep the order this sort of the
   table's sequence gives them, which the image digest records. *)
let sorted_blocks t =
  match Atomic.get t.by_addr with
  | Some arr -> arr
  | None ->
    let arr = Array.of_seq (Seq.map snd (Hashtbl.to_seq t.blocks)) in
    Array.sort (fun (a : block_info) (b : block_info) -> compare a.addr b.addr) arr;
    Atomic.set t.by_addr (Some arr);
    arr

let find_block_by_addr t addr =
  let arr = sorted_blocks t in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let b = arr.(mid) in
      if addr < b.addr then search lo (mid - 1)
      else if addr >= b.addr + b.size then search (mid + 1) hi
      else Some b
    end
  in
  search 0 (Array.length arr - 1)

let funcs t =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter (fun (f, _) _ -> Hashtbl.replace seen f ()) t.blocks;
  Hashtbl.fold (fun f () acc -> f :: acc) seen [] |> List.sort compare

let blocks_in_address_order t = Array.to_list (sorted_blocks t)

let symbols_sorted t =
  Hashtbl.fold (fun name addr acc -> (name, addr) :: acc) t.symbols []
  |> List.sort (fun (na, aa) (nb, ab) ->
         match compare aa ab with 0 -> String.compare na nb | c -> c)

let kind_tag = function
  | Objfile.Section.Text -> "text"
  | Bb_addr_map -> "bbmap"
  | Eh_frame -> "eh"
  | Rela -> "rela"
  | Rodata -> "ro"
  | Data -> "data"
  | Debug -> "dbg"
  | Symtab -> "sym"

let image_digest t =
  (* Canonical serialization: layout-ordered sections, address-ordered
     blocks with their final instruction streams, and the sorted symbol
     table. Two binaries digest equal iff the images an interpreter or
     disassembler could observe are equal — the byte-identity oracle of
     the --jobs determinism contract. *)
  let b = Buffer.create 4096 in
  Printf.bprintf b "image-v1|%s|entry=%s|text=%d-%d" t.name t.entry_symbol
    t.text_start t.text_end;
  List.iter
    (fun (s : placed) ->
      Printf.bprintf b "|S%s:%s@%d+%d:%s" (kind_tag s.kind) s.name s.addr s.size
        (Option.value ~default:"-" s.symbol))
    t.sections;
  List.iter
    (fun (bi : block_info) ->
      Printf.bprintf b "|B%s#%d@%d+%d" bi.func bi.block bi.addr bi.size;
      List.iter (fun i -> Printf.bprintf b ";%s" (Isa.to_string i)) bi.insts)
    (blocks_in_address_order t);
  List.iter (fun (nm, addr) -> Printf.bprintf b "|Y%s=%d" nm addr) (symbols_sorted t);
  Support.Digesting.of_string (Buffer.contents b)
