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

type t = {
  bin : Linker.Binary.t;
  blocks : Linker.Binary.block_info array;  (* address order *)
  baddrs : int array;  (* blocks.(i).addr — flat index for binary search *)
  bsizes : int array;  (* blocks.(i).size *)
  texts : Linker.Binary.placed array;  (* text sections, address order *)
  others : Linker.Binary.placed array;  (* non-text sections, address order *)
}

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
  let blocks = Array.of_list (Linker.Binary.blocks_in_address_order bin) in
  let baddrs = Array.map (fun (b : Linker.Binary.block_info) -> b.addr) blocks in
  let bsizes = Array.map (fun (b : Linker.Binary.block_info) -> b.size) blocks in
  let texts, others =
    List.partition (fun (p : Linker.Binary.placed) -> p.kind = Objfile.Section.Text) bin.sections
  in
  let by_addr (a : Linker.Binary.placed) (b : Linker.Binary.placed) = compare a.addr b.addr in
  let texts = Array.of_list (List.sort by_addr texts) in
  let others = Array.of_list (List.sort by_addr others) in
  { bin; blocks; baddrs; bsizes; texts; others }

let num_blocks t = Array.length t.blocks

let find_block_index t addr = Support.Isearch.covering ~addrs:t.baddrs ~sizes:t.bsizes addr

let block_at t i = t.blocks.(i)

let resolve_batch t queries =
  Support.Isearch.covering_batch ~addrs:t.baddrs ~sizes:t.bsizes queries

(* Generic covering-interval binary search over an address-sorted array. *)
let find_covering arr ~addr_of ~size_of addr =
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let a = addr_of arr.(mid) in
      if addr < a then search lo (mid - 1)
      else if addr >= a + size_of arr.(mid) then search (mid + 1) hi
      else Some arr.(mid)
    end
  in
  search 0 (Array.length arr - 1)

let section_at t addr =
  find_covering t.texts
    ~addr_of:(fun (p : Linker.Binary.placed) -> p.addr)
    ~size_of:(fun (p : Linker.Binary.placed) -> p.size)
    addr

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
  let n = Array.length t.texts in
  let first_above i = if i >= n then None else Some t.texts.(i) in
  (* Index of the first section starting above addr. *)
  let rec lower lo hi =
    if lo > hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.texts.(mid).Linker.Binary.addr <= addr then lower (mid + 1) hi else lower lo (mid - 1)
    end
  in
  let i = lower 0 (n - 1) in
  let name_of (p : Linker.Binary.placed) =
    match p.symbol with Some s -> Some s | None -> Some p.name
  in
  let prev = if i = 0 then None else name_of t.texts.(i - 1) in
  let next = Option.bind (first_above i) name_of in
  Padding { prev; next }

let resolve t addr =
  match find_block_index t addr with
  | i when i >= 0 -> Code (location_of ~sec:(section_at t addr) t.blocks.(i) addr)
  | _ ->
    if addr >= t.bin.text_start && addr < t.bin.text_end then neighbours t addr
    else begin
      match
        find_covering t.others
          ~addr_of:(fun (p : Linker.Binary.placed) -> p.addr)
          ~size_of:(fun (p : Linker.Binary.placed) -> p.size)
          addr
      with
      | Some p -> Noncode p.name
      | None -> Outside
    end

let location_at t i =
  let b = t.blocks.(i) in
  location_of ~sec:(section_at t b.addr) b b.addr

let blocks_of_func t func =
  Array.to_list t.blocks
  |> List.filter_map (fun (b : Linker.Binary.block_info) ->
         if String.equal b.func func then Some (location_of ~sec:(section_at t b.addr) b b.addr)
         else None)

let funcs t = Linker.Binary.funcs t.bin
