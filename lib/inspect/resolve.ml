type fragment = Primary | Cold | Cluster of int

type location = {
  func : string;
  block : int;
  block_addr : int;
  block_size : int;
  offset : int;
  section : string;
  section_symbol : string option;
  fragment : fragment;
}

type resolution =
  | Code of location
  | Padding of { prev : string option; next : string option }
  | Noncode of string
  | Outside

(* Placed sections in address order, with flat (addr, size) arrays for
   the covering search. *)
type sections = {
  placed : Linker.Binary.placed array;
  addrs : int array;
  sizes : int array;
}

type t = {
  bin : Linker.Binary.t;
  idx : Linker.Binary.index;
  texts : sections;
  others : sections;  (* non-text *)
}

let sections_of list =
  let placed =
    Array.of_list
      (List.sort
         (fun (a : Linker.Binary.placed) (b : Linker.Binary.placed) -> compare a.addr b.addr)
         list)
  in
  {
    placed;
    addrs = Array.map (fun (p : Linker.Binary.placed) -> p.addr) placed;
    sizes = Array.map (fun (p : Linker.Binary.placed) -> p.size) placed;
  }

let covering_section s addr =
  match Support.Isearch.covering ~addrs:s.addrs ~sizes:s.sizes addr with
  | -1 -> None
  | i -> Some s.placed.(i)

let fragment_of_symbol = function
  | None -> Primary
  | Some s ->
    if Objfile.Symname.is_cold s then Cold
    else begin
      let owner = Objfile.Symname.owner s in
      if String.equal owner s then Primary
      else begin
        let suffix =
          String.sub s (String.length owner + 1) (String.length s - String.length owner - 1)
        in
        match int_of_string_opt suffix with Some n -> Cluster n | None -> Primary
      end
    end

let fragment_to_string = function
  | Primary -> "primary"
  | Cold -> "cold"
  | Cluster n -> Printf.sprintf "cluster.%d" n

let create (bin : Linker.Binary.t) =
  let texts, others =
    List.partition (fun (p : Linker.Binary.placed) -> p.kind = Objfile.Section.Text) bin.sections
  in
  { bin; idx = Linker.Binary.index bin; texts = sections_of texts; others = sections_of others }

let num_blocks t = Array.length t.idx.ordered

let find_block_index t addr =
  Support.Isearch.covering ~addrs:t.idx.addrs ~sizes:t.idx.sizes addr

let block_at t i = t.idx.ordered.(i)

let resolve_batch t queries =
  Support.Isearch.covering_batch ~addrs:t.idx.addrs ~sizes:t.idx.sizes queries

let section_at t addr = covering_section t.texts addr

let location_of ~(sec : Linker.Binary.placed option) (b : Linker.Binary.block_info) addr =
  let section, section_symbol =
    match sec with Some s -> (s.name, s.symbol) | None -> ("", None)
  in
  {
    func = b.func;
    block = b.block;
    block_addr = b.addr;
    block_size = b.size;
    offset = addr - b.addr;
    section;
    section_symbol;
    fragment = fragment_of_symbol (match sec with Some s -> s.symbol | None -> None);
  }

(* Nearest cluster symbols around an uncovered text address. *)
let neighbours t addr =
  let texts = t.texts.placed in
  let n = Array.length texts in
  let first_above i = if i >= n then None else Some texts.(i) in
  (* Index of the first section starting above addr. *)
  let rec lower lo hi =
    if lo > hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if texts.(mid).Linker.Binary.addr <= addr then lower (mid + 1) hi else lower lo (mid - 1)
    end
  in
  let i = lower 0 (n - 1) in
  let name_of (p : Linker.Binary.placed) =
    match p.symbol with Some s -> Some s | None -> Some p.name
  in
  let prev = if i = 0 then None else name_of texts.(i - 1) in
  let next = Option.bind (first_above i) name_of in
  Padding { prev; next }

let resolve t addr =
  match find_block_index t addr with
  | i when i >= 0 -> Code (location_of ~sec:(section_at t addr) t.idx.ordered.(i) addr)
  | _ ->
    if addr >= t.bin.text_start && addr < t.bin.text_end then neighbours t addr
    else begin
      match covering_section t.others addr with
      | Some p -> Noncode p.name
      | None -> Outside
    end

let location_at t i =
  let b = t.idx.ordered.(i) in
  location_of ~sec:(section_at t b.addr) b b.addr

let blocks_of_func t func =
  Array.to_list (Array.map (location_at t) (Linker.Binary.func_blocks t.idx func))

let funcs t = Linker.Binary.funcs t.bin
