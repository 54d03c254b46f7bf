type block_info = { func : string; block : int; addr : int; size : int; insts : Isa.t list }

type placed = {
  name : string;
  kind : Objfile.Section.kind;
  addr : int;
  size : int;
  symbol : string option;
}

type index = {
  ordered : block_info array;
  order : int array;
  addrs : int array;
  sizes : int array;
  by_func : (string, int array) Hashtbl.t;
}

type map_range = { symbol : string; first : int; last : int }

type t = {
  name : string;
  entry_symbol : string;
  sections : placed list;
  symbols : (string, int) Hashtbl.t;
  blocks : block_info array;
  positions : (string, int array) Hashtbl.t;
  text_start : int;
  text_end : int;
  bb_addr_map : map_range array;
  by_addr : cell;
}

(* Built on first use. Domains that race to build it compute equal
   arrays, so whichever store wins is the same index. *)
and cell = index option Atomic.t

let make ~name ~entry_symbol ~sections ~symbols ~blocks ~positions ~text_start ~text_end
    ~bb_addr_map =
  { name; entry_symbol; sections; symbols; blocks; positions; text_start; text_end; bb_addr_map;
    by_addr = Atomic.make None }

let block_positions t func = Option.value ~default:[||] (Hashtbl.find_opt t.positions func)

let block_info t ~func ~block =
  let pos = block_positions t func in
  if block >= 0 && block < Array.length pos && pos.(block) >= 0 then Some t.blocks.(pos.(block))
  else None

let block_info_exn t ~func ~block =
  match block_info t ~func ~block with Some b -> b | None -> raise Not_found

let size_of_kind t kind =
  List.fold_left (fun acc p -> if p.kind = kind then acc + p.size else acc) 0 t.sections

let total_size t = List.fold_left (fun acc p -> acc + p.size) 0 t.sections

let text_bytes t = size_of_kind t Objfile.Section.Text

(* Blocks at equal addresses (emptied by relaxation) keep the order an
   unstable sort of a (func, block) table's sequence gives them, which
   the image digest records (image-v1). [blocks] is already in address
   order, so the table is replayed only for that tie order: the blocks'
   positions are added in link order to a table created as the link
   once created it, then sorted by their blocks' addresses. A table's
   order and the sort's permutation depend on keys and comparison
   outcomes alone, so the positions come out as the blocks once did.
   Step A of ROADMAP item 1 breaks ties by (func, block) and deletes
   this replay. *)
let build_index blocks =
  let table = Hashtbl.create 4096 in
  Array.iteri (fun i (b : block_info) -> Hashtbl.add table (b.func, b.block) i) blocks;
  let order = Array.of_seq (Hashtbl.to_seq_values table) in
  Array.sort (fun i j -> Int.compare blocks.(i).addr blocks.(j).addr) order;
  let ordered = Array.map (fun i -> blocks.(i)) order in
  let rev = Hashtbl.create 256 in
  Array.iteri
    (fun i (b : block_info) ->
      Hashtbl.replace rev b.func (i :: Option.value ~default:[] (Hashtbl.find_opt rev b.func)))
    ordered;
  {
    ordered;
    order;
    addrs = Array.map (fun (b : block_info) -> b.addr) ordered;
    sizes = Array.map (fun (b : block_info) -> b.size) ordered;
    by_func =
      Hashtbl.of_seq
        (Seq.map (fun (f, l) -> (f, Array.of_list (List.rev l))) (Hashtbl.to_seq rev));
  }

let index t =
  match Atomic.get t.by_addr with
  | Some idx -> idx
  | None ->
    let idx = build_index t.blocks in
    Atomic.set t.by_addr (Some idx);
    idx

let func_blocks idx f = Option.value ~default:[||] (Hashtbl.find_opt idx.by_func f)

let find_block_by_addr t addr =
  let idx = index t in
  match Support.Isearch.covering ~addrs:idx.addrs ~sizes:idx.sizes addr with
  | -1 -> None
  | i -> Some idx.ordered.(i)

let funcs t = Hashtbl.fold (fun f _ acc -> f :: acc) (index t).by_func [] |> List.sort compare

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
  Array.iter
    (fun (bi : block_info) ->
      Printf.bprintf b "|B%s#%d@%d+%d" bi.func bi.block bi.addr bi.size;
      List.iter (fun i -> Printf.bprintf b ";%s" (Isa.to_string i)) bi.insts)
    (index t).ordered;
  List.iter (fun (nm, addr) -> Printf.bprintf b "|Y%s=%d" nm addr) (symbols_sorted t);
  Support.Digesting.of_string (Buffer.contents b)
