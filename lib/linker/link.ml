(* The link runs over flat arrays. It counts the inputs' code sections
   and totals, gathers the sections into per-section arrays in layout
   order (the ordering file's, by a counting sort), numbering each
   function the first time it meets one of its sections, then numbers
   the pieces and branches in that order ([number]), registers every
   symbol and block ([register]), resolves every branch target by
   function number ([resolve_targets]), and assigns addresses and
   relaxes until the fixpoint. Pieces are numbered in layout order, so
   piece [i] becomes the binary's block [i]: the output needs no table
   of blocks, and the per-function arrays, each sized to its
   function's largest block id, become [Binary]'s lookups by block id.
   The symbol table maps each symbol to its section while targets
   resolve, and to its final address once they are placed.

   The output builds no instruction list: a block keeps its piece's
   compiled code, and the binary keeps the relaxed branches in flat
   arrays ([Binary.insts] applies them on demand). The working arrays
   are the domain's spare ([spare_work]): a link takes them when they
   are large enough, and returns them once the binary has copied what
   it keeps, so a relink on a warm domain allocates little beyond its
   output. *)

exception Link_error of string

type options = {
  ordering : string list option;
  keep_bb_addr_map : bool;
  emit_relocs : bool;
  relax : bool;
  text_align : int;
  base_addr : int;
}

let default_options =
  {
    ordering = None;
    keep_bb_addr_map = false;
    emit_relocs = false;
    relax = true;
    text_align = 4096;
    base_addr = 0x400000;
  }

type stats = {
  input_bytes : int;
  output_bytes : int;
  num_input_sections : int;
  relax_iters : int;
  deleted_jumps : int;
  shrunk_branches : int;
  peak_mem_bytes : int;
  cpu_seconds : float;
}

type outcome = { binary : Binary.t; stats : stats }

let align_up v a = if a <= 1 then v else (v + a - 1) / a * a

(* The working state of a link, in flat arrays. Code sections are
   numbered in layout order, and so are their pieces and their
   branches (the Jcc and Jmp sites), so a piece's number is its output
   block's position. Only Jcc and Jmp ever change encoding or die.
   Sizes and the runs between branches start as the fragment index's,
   computed once when the object was made. A branch target is a piece
   number, or [-(s + 1)] for the symbol of section [s], resolved up
   front so the sweeps never consult a symbol table. The arrays may be
   longer than this link's [nsec] sections, [np] pieces and [nb]
   branches: they are the domain's spare when it fits. *)
type work = {
  nsec : int;  (** Code sections. *)
  np : int;  (** Pieces. *)
  nb : int;  (** Branches. *)
  sec : Objfile.Section.t array;  (** Per section: the input section. *)
  frag : Objfile.Fragment.t array;  (** Per section: its code. *)
  fn : int array;  (** Per section: its function's number. *)
  had_bbmap : Bytes.t;  (** Per section: ['\001'] when its object carried its address map. *)
  sec_piece : int array;
      (** Section [s] holds pieces [sec_piece.(s)] to [sec_piece.(s + 1) - 1]. *)
  saddr : int array;  (** Per section: its address. *)
  size : int array;  (** Per piece: bytes of the live instructions. *)
  addr : int array;
  piece_branch : int array;
      (** Piece [i] holds branches [piece_branch.(i)] to [piece_branch.(i + 1) - 1]. *)
  inst : Isa.t array;  (** Per branch: its current encoding. *)
  dead : Bytes.t;  (** Per branch: ['\001'] once deleted. *)
  pinned : Bytes.t;  (** Grown back to long (rule 4): never shrinks again. *)
  target : int array;
  pre_bytes : int array;  (** Non-branch bytes since the previous branch or piece start. *)
  pre_count : int array;  (** Non-branch instructions in that run. *)
}

(* What a returned spare's sections and fragments are overwritten
   with, so that it holds no input alive. *)
let no_section = Objfile.Section.make ~name:"" ~kind:Objfile.Section.Text (Objfile.Section.Raw 0)

let no_code =
  Objfile.Fragment.make ~func:"" [ { Objfile.Fragment.block = 0; insts = []; is_landing_pad = false } ]

(* The arrays the domain's last successful link returned. A link that
   raises returns none. *)
let spare_work : work option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let[@inline] flag b j = Bytes.get b j <> '\000'

let[@inline] set_flag b j = Bytes.set b j '\001'

(* The domain's spare when its arrays hold [nsec] sections, [np]
   pieces and [nb] branches, else fresh arrays of those sizes. Only
   [dead] and [pinned] are read before they are written, so only they
   are cleared. *)
let take_work ~nsec ~np ~nb =
  let spare = Domain.DLS.get spare_work in
  Domain.DLS.set spare_work None;
  let w =
    match spare with
    | Some w
      when Array.length w.sec >= nsec && Array.length w.size >= np && Array.length w.inst >= nb ->
      w
    | Some _ | None ->
      {
        nsec = 0;
        np = 0;
        nb = 0;
        sec = Array.make nsec no_section;
        frag = Array.make nsec no_code;
        fn = Array.make nsec 0;
        had_bbmap = Bytes.make nsec '\000';
        sec_piece = Array.make (nsec + 1) 0;
        saddr = Array.make nsec 0;
        size = Array.make np 0;
        addr = Array.make np 0;
        piece_branch = Array.make (np + 1) 0;
        inst = Array.make nb Isa.Ret;
        dead = Bytes.make nb '\000';
        pinned = Bytes.make nb '\000';
        target = Array.make nb 0;
        pre_bytes = Array.make nb 0;
        pre_count = Array.make nb 0;
      }
  in
  Bytes.fill w.dead 0 nb '\000';
  Bytes.fill w.pinned 0 nb '\000';
  { w with nsec; np; nb }

(* Hands the arrays back as the domain's spare, once the binary has
   copied what it keeps. *)
let return_work w =
  Array.fill w.sec 0 w.nsec no_section;
  Array.fill w.frag 0 w.nsec no_code;
  Domain.DLS.set spare_work (Some w)

(* Assign piece/section addresses sequentially from [base]. *)
let assign_addresses base w =
  let cur = ref base in
  for s = 0 to w.nsec - 1 do
    cur := align_up !cur w.sec.(s).align;
    w.saddr.(s) <- !cur;
    for i = w.sec_piece.(s) to w.sec_piece.(s + 1) - 1 do
      w.addr.(i) <- !cur;
      cur := !cur + w.size.(i)
    done
  done;
  !cur

let sec_size w s =
  let n = ref 0 in
  for i = w.sec_piece.(s) to w.sec_piece.(s + 1) - 1 do
    n := !n + w.size.(i)
  done;
  !n

let[@inline] target_addr w j =
  let t = w.target.(j) in
  if t >= 0 then w.addr.(t) else w.saddr.(-t - 1)

let bbmap_prefix = ".llvm_bb_addr_map."

(* Whether [name] matches [bbmap_prefix ^ func] from index [k] on. *)
let rec bbmap_name_from name func k =
  let pl = String.length bbmap_prefix in
  k >= String.length name
  || Char.equal name.[k] (if k < pl then bbmap_prefix.[k] else func.[k - pl])
     && bbmap_name_from name func (k + 1)

(* [name = bbmap_prefix ^ func], without building the concatenation. *)
let is_bbmap_of ~func name =
  String.length name = String.length bbmap_prefix + String.length func
  && bbmap_name_from name func 0

let rec has_bbmap func = function
  | [] -> false
  | (m : Objfile.Section.t) :: rest -> is_bbmap_of ~func m.name || has_bbmap func rest

(* Input-side totals the output needs, and the link's sizes. *)
type totals = {
  mutable input_bytes : int;
  mutable num_input_sections : int;
  mutable relocs : int;
  mutable rodata : int;
  mutable data : int;
  mutable eh_frame : int;
  mutable code_sections : int;
  mutable pieces : int;  (** Of the code sections. *)
  mutable branches : int;  (** Of the code sections. *)
}

(* Adds one object's sections to [t]; returns its text sections. *)
let rec count_sections t text = function
  | [] -> text
  | (s : Objfile.Section.t) :: rest ->
    t.num_input_sections <- t.num_input_sections + 1;
    let size =
      match s.contents with
      | Objfile.Section.Code frag ->
        let ix = frag.index in
        let n = Array.length ix.sizes in
        t.code_sections <- t.code_sections + 1;
        t.pieces <- t.pieces + n;
        t.branches <- t.branches + ix.branch_start.(n);
        t.relocs <- t.relocs + Array.length ix.sites;
        ix.bytes
      | Objfile.Section.Map _ | Objfile.Section.Raw _ -> Objfile.Section.size s
    in
    t.input_bytes <- t.input_bytes + size;
    (match s.kind with
    | Objfile.Section.Rodata -> t.rodata <- t.rodata + size
    | Data -> t.data <- t.data + size
    | Eh_frame -> t.eh_frame <- t.eh_frame + size
    | Text | Bb_addr_map | Rela | Debug | Symtab -> ());
    count_sections t (if s.kind = Objfile.Section.Text then text + 1 else text) rest

let count objs =
  let t =
    {
      input_bytes = 0;
      num_input_sections = 0;
      relocs = 0;
      rodata = 0;
      data = 0;
      eh_frame = 0;
      code_sections = 0;
      pieces = 0;
      branches = 0;
    }
  in
  List.iter
    (fun (o : Objfile.File.t) ->
      let text = count_sections t 0 o.sections in
      (* Two DWARF range relocations per text section beyond the
         first, as {!Objfile.File.num_relocations} counts them. *)
      t.relocs <- t.relocs + (2 * max 0 (text - 1)))
    objs;
  t

(* [f i o s frag] for every code section [s] of every object [o], in
   input order, [i] counting them. *)
let iter_code f objs =
  let rec secs o i = function
    | [] -> i
    | (s : Objfile.Section.t) :: rest -> (
      match s.contents with
      | Objfile.Section.Code frag ->
        f i o s frag;
        secs o (i + 1) rest
      | Objfile.Section.Map _ | Objfile.Section.Raw _ -> secs o i rest)
  in
  ignore (List.fold_left (fun i (o : Objfile.File.t) -> secs o i o.sections) 0 objs : int)

(* Each code section's place in the layout, by input order: sections
   whose symbol the ordering file lists come first, by the position of
   the symbol's first listing, then the rest in input order. A
   counting sort by that position, stable in input order. *)
let layout_slots ordering nsec objs =
  let nr = List.length ordering in
  let rank = Hashtbl.create nr in
  List.iteri (fun i s -> if not (Hashtbl.mem rank s) then Hashtbl.add rank s i) ordering;
  let slot = Array.make nsec nr and next = Array.make (nr + 2) 0 in
  iter_code
    (fun i _ (s : Objfile.Section.t) _ ->
      let r =
        match s.symbol with
        | Some sym -> ( match Hashtbl.find rank sym with r -> r | exception Not_found -> nr)
        | None -> nr
      in
      slot.(i) <- r;
      next.(r + 1) <- next.(r + 1) + 1)
    objs;
  for r = 1 to nr do
    next.(r) <- next.(r) + next.(r - 1)
  done;
  for i = 0 to nsec - 1 do
    let r = slot.(i) in
    slot.(i) <- next.(r);
    next.(r) <- next.(r) + 1
  done;
  slot

let rec max_block m = function
  | [] -> m
  | (p : Objfile.Fragment.piece) :: rest -> max_block (max m p.block) rest

(* The one pass that fills the per-section arrays, in layout order. It
   numbers each function the first time one of its sections is seen,
   so a function name is hashed once per section, and returns each
   function's largest block id. *)
let gather options objs w func_ids =
  let slot =
    match options.ordering with
    | None -> None
    | Some ordering -> Some (layout_slots ordering w.nsec objs)
  in
  let max_id = Array.make w.nsec 0 in
  iter_code
    (fun i (o : Objfile.File.t) s (frag : Objfile.Fragment.t) ->
      let l = match slot with None -> i | Some slot -> slot.(i) in
      let f =
        match Hashtbl.find func_ids frag.func with
        | f -> f
        | exception Not_found ->
          let f = Hashtbl.length func_ids in
          Hashtbl.add func_ids frag.func f;
          f
      in
      w.sec.(l) <- s;
      w.frag.(l) <- frag;
      w.fn.(l) <- f;
      max_id.(f) <- max_block max_id.(f) frag.pieces;
      Bytes.set w.had_bbmap l
        (if options.keep_bb_addr_map && has_bbmap frag.func o.sections then '\001' else '\000'))
    objs;
  max_id

(* Number the ordered sections' pieces and branches. Branch
   instructions and targets are filled by [resolve_targets]. *)
let number w =
  let next_branch = ref 0 in
  w.sec_piece.(0) <- 0;
  for s = 0 to w.nsec - 1 do
    let ix = w.frag.(s).index in
    let p0 = w.sec_piece.(s) and b0 = !next_branch in
    let n = Array.length ix.sizes in
    let nbr = ix.branch_start.(n) in
    w.sec_piece.(s + 1) <- p0 + n;
    next_branch := b0 + nbr;
    Array.blit ix.sizes 0 w.size p0 n;
    for k = 0 to n - 1 do
      w.piece_branch.(p0 + k) <- b0 + ix.branch_start.(k)
    done;
    Array.blit ix.pre_bytes 0 w.pre_bytes b0 nbr;
    Array.blit ix.pre_count 0 w.pre_count b0 nbr
  done;
  w.piece_branch.(w.np) <- w.nb

let rec register_pieces func by_block i = function
  | [] -> ()
  | (p : Objfile.Fragment.piece) :: rest ->
    if by_block.(p.block) >= 0 then
      raise (Link_error (Printf.sprintf "block %s#%d defined twice" func p.block));
    by_block.(p.block) <- i;
    register_pieces func by_block (i + 1) rest

(* Register every section's symbol (symbol -> section) and every piece
   in its function's array, indexed by block id (IR block ids are
   dense, see [Ir.Func.make]), [-1] marking unused slots. Every block
   is registered before any target resolves. Returns the symbol
   table's encoded size. *)
let register w syms positions =
  let bytes = ref 0 in
  for s = 0 to w.nsec - 1 do
    (match w.sec.(s).symbol with
    | Some sym ->
      let n = Hashtbl.length syms in
      Hashtbl.replace syms sym s;
      if Hashtbl.length syms = n then raise (Link_error ("duplicate symbol " ^ sym));
      bytes := !bytes + 24 + String.length sym + 1
    | None -> ());
    let frag = w.frag.(s) in
    register_pieces frag.func positions.(w.fn.(s)) w.sec_piece.(s) frag.pieces
  done;
  !bytes

(* The piece of [func]'s block [block], from a site of a section of
   function number [own], named [sfunc]: a target in the site's own
   function is indexed straight from that function's array. *)
let piece_of func_ids positions own sfunc func block =
  let by_block =
    if func == sfunc || String.equal func sfunc then positions.(own)
    else match Hashtbl.find func_ids func with f -> positions.(f) | exception Not_found -> [||]
  in
  let i = if block >= 0 && block < Array.length by_block then by_block.(block) else -1 in
  if i < 0 then raise (Link_error (Printf.sprintf "unresolved block target %s#%d" func block));
  i

let func_target syms f =
  match Hashtbl.find syms f with
  | s -> -(s + 1)
  | exception Not_found -> raise (Link_error ("unresolved function symbol " ^ f))

(* Resolve every branch target in one walk of each fragment's
   relocation sites, which also fills each branch's instruction.
   Calls are resolved only to check them: relaxation never moves
   them. *)
let resolve_targets w func_ids syms positions =
  for s = 0 to w.nsec - 1 do
    let frag = w.frag.(s) in
    let sfunc = frag.func and own = w.fn.(s) and sites = frag.index.sites in
    (* A fragment's sites hold its branches in branch order. *)
    let j = ref w.piece_branch.(w.sec_piece.(s)) in
    for k = 0 to Array.length sites - 1 do
      match sites.(k) with
      | (Isa.Jcc { target; _ } | Isa.Jmp { target; _ }) as site ->
        w.inst.(!j) <- site;
        w.target.(!j) <-
          (match target with
          | Isa.Target.Block { func; block } -> piece_of func_ids positions own sfunc func block
          | Isa.Target.Func f -> func_target syms f);
        incr j
      | Isa.Call (Isa.Target.Block { func; block }) ->
        ignore (piece_of func_ids positions own sfunc func block : int)
      | Isa.Call (Isa.Target.Func f) -> ignore (func_target syms f : int)
      | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret
      | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false
    done
  done

(* Index of the next live branch in [j, hi) when only dead branches lie
   between, or [-1] when a (never deleted) non-branch instruction or
   the piece end comes first. *)
let rec next_live_branch w hi j =
  if j >= hi then -1
  else if w.pre_count.(j) > 0 then -1
  else if flag w.dead j then next_live_branch w hi (j + 1)
  else j

(* Relaxation tallies: the [stats] counters, and whether the current
   sweep changed anything. *)
type tally = {
  mutable deleted : int;
  mutable shrunk : int;
  mutable grown : int;
  mutable changed : bool;
}

(* Branch [j] of piece [i] dies. *)
let kill t w i j size =
  set_flag w.dead j;
  w.size.(i) <- w.size.(i) - size;
  t.deleted <- t.deleted + 1;
  t.changed <- true

let recode t w i j inst =
  w.size.(i) <- w.size.(i) + Isa.size inst - Isa.size w.inst.(j);
  w.inst.(j) <- inst;
  t.changed <- true

let grow t w i j inst =
  recode t w i j inst;
  set_flag w.pinned j;
  t.grown <- t.grown + 1

(* Relax piece [i]'s branches, walking its addresses from its own. *)
let relax_piece t w i =
  let hi = w.piece_branch.(i + 1) in
  let addr = ref w.addr.(i) in
  for j = w.piece_branch.(i) to hi - 1 do
    addr := !addr + w.pre_bytes.(j);
    if not (flag w.dead j) then begin
      let inst = w.inst.(j) in
      let size = Isa.size inst in
      let after = !addr + size in
      (match inst with
      | Isa.Jmp { target; encoding } -> (
        let tgt = target_addr w j in
        if tgt = after then kill t w i j size
        else
          match encoding with
          | Isa.Long ->
            if (not (flag w.pinned j)) && Isa.fits_short (tgt - (!addr + Isa.jmp_size Isa.Short))
            then begin
              recode t w i j (Isa.Jmp { target; encoding = Isa.Short });
              t.shrunk <- t.shrunk + 1
            end
          | Isa.Short ->
            if not (Isa.fits_short (tgt - after)) then
              grow t w i j (Isa.Jmp { target; encoding = Isa.Long }))
      | Isa.Jcc { cond; target; encoding } -> (
        let tgt = target_addr w j in
        let reversed =
          match next_live_branch w hi (j + 1) with
          | -1 -> false
          | k -> (
            match w.inst.(k) with
            | Isa.Jmp { target = jmp_target; _ } as jmp ->
              let jmp_size = Isa.size jmp in
              if tgt = after + jmp_size then begin
                w.inst.(j) <-
                  Isa.Jcc { cond = Isa.Cond.negate cond; target = jmp_target; encoding };
                w.target.(j) <- w.target.(k);
                kill t w i k jmp_size;
                true
              end
              else false
            | Isa.Jcc _ -> false
            | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall
            | Isa.IndirectJmp | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ ->
              assert false)
        in
        if not reversed then
          match encoding with
          | Isa.Long ->
            if (not (flag w.pinned j)) && Isa.fits_short (tgt - (!addr + Isa.jcc_size Isa.Short))
            then begin
              recode t w i j (Isa.Jcc { cond; target; encoding = Isa.Short });
              t.shrunk <- t.shrunk + 1
            end
          | Isa.Short ->
            if not (Isa.fits_short (tgt - after)) then
              grow t w i j (Isa.Jcc { cond; target; encoding = Isa.Long }))
      | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall | Isa.IndirectJmp
      | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false);
      if not (flag w.dead j) then addr := !addr + Isa.size w.inst.(j)
    end
  done

(* One relaxation sweep over every branch, in layout order; returns
   whether anything changed. Each piece walks from the address assigned
   before the sweep, and targets read those same addresses. Rules:
   1. an unconditional jump whose target is the next address is dead;
   2. a conditional branch that skips exactly over a live trailing jump
      gets its condition reversed, takes the jump's destination, and
      kills the jump;
   3. long branches whose displacement fits rel8 shrink to short;
   4. short branches whose displacement no longer fits rel8 grow back
      to long, and stay long. Section alignment can stretch a
      displacement: when code ahead of a target shrinks, an aligned
      section after it may stay put. A reversal can also hand a short
      branch a far destination. Through alignment two branches can
      each fit rel8 only while the other is long; pinning a grown
      branch long ends that cycle, so the sweeps always converge. *)
let relax_sweep t w =
  t.changed <- false;
  for i = 0 to w.np - 1 do
    if w.piece_branch.(i + 1) > w.piece_branch.(i) then relax_piece t w i
  done;
  t.changed

let rec place_pieces w blocks func i = function
  | [] -> ()
  | (p : Objfile.Fragment.piece) :: rest ->
    blocks.(i) <-
      { Binary.func; block = p.block; addr = w.addr.(i); size = w.size.(i); code = p.insts };
    place_pieces w blocks func (i + 1) rest

(* Every piece's output block, in layout order, which is address
   order: piece [i] becomes [blocks.(i)], keeping its compiled code. *)
let output_blocks w =
  let blocks =
    Array.make w.np { Binary.func = ""; block = 0; addr = 0; size = 0; code = [] }
  in
  for s = 0 to w.nsec - 1 do
    let frag = w.frag.(s) in
    place_pieces w blocks frag.func w.sec_piece.(s) frag.pieces
  done;
  blocks

(* The retained address map: the block range of every section whose
   input carried one, and the map's encoded size, each entry's offset
   taken from its section's address. *)
let bb_addr_map w (blocks : Binary.block_info array) =
  let maps = ref [] and bytes = ref 0 in
  for s = w.nsec - 1 downto 0 do
    match w.sec.(s).symbol with
    | Some symbol when flag w.had_bbmap s ->
      let first = w.sec_piece.(s) and last = w.sec_piece.(s + 1) in
      maps := { Binary.symbol; first; last } :: !maps;
      bytes := !bytes + Objfile.Bbmap.header_size;
      for i = first to last - 1 do
        bytes :=
          !bytes
          + Objfile.Bbmap.entry_size ~bb_id:blocks.(i).block ~offset:(w.addr.(i) - w.saddr.(s))
              ~size:w.size.(i)
      done
    | Some _ | None -> ()
  done;
  (Array.of_list !maps, !bytes)

(* The placed text sections, in layout order, ahead of [rest]. *)
let rec placed_texts w s rest =
  if s < 0 then rest
  else
    let sec = w.sec.(s) in
    placed_texts w (s - 1)
      ({
         Binary.name = sec.name;
         kind = Objfile.Section.Text;
         addr = w.saddr.(s);
         size = sec_size w s;
         symbol = sec.symbol;
       }
      :: rest)

let link ~ctx ?(options = default_options) ~name ~entry objs =
  let recorder = ctx.Support.Ctx.recorder in
  let totals = count objs in
  let input_bytes = totals.input_bytes and num_input_sections = totals.num_input_sections in
  let w = take_work ~nsec:totals.code_sections ~np:totals.pieces ~nb:totals.branches in
  let func_ids = Hashtbl.create ((w.nsec / 2) + 1) in
  let max_id = gather options objs w func_ids in
  let positions = Array.init (Hashtbl.length func_ids) (fun f -> Array.make (max_id.(f) + 1) (-1)) in
  number w;
  let syms = Hashtbl.create ((w.nsec / 2) + 1) in
  let symtab_bytes = register w syms positions in
  resolve_targets w func_ids syms positions;
  if not (Hashtbl.mem syms entry) then raise (Link_error ("undefined entry symbol " ^ entry));
  let text_base = align_up options.base_addr options.text_align in
  let tally = { deleted = 0; shrunk = 0; grown = 0; changed = false } in
  let rec fix iters =
    ignore (assign_addresses text_base w);
    if options.relax && iters < 32 && relax_sweep tally w then fix (iters + 1) else iters
  in
  let relax_iters = fix 1 in
  let text_end = assign_addresses text_base w in
  let blocks = output_blocks w in
  let bb_addr_map, bbmap_bytes = bb_addr_map w blocks in
  (* The symbol table, from section to final address, in place. *)
  Hashtbl.filter_map_inplace (fun _ s -> Some w.saddr.(s)) syms;
  (* Placed sections: text in layout order, then aggregated non-text. *)
  let cur = ref (align_up text_end 4096) in
  let mk sec_name kind size =
    if size = 0 then None
    else begin
      let p = { Binary.name = sec_name; kind; addr = !cur; size; symbol = None } in
      cur := !cur + size;
      Some p
    end
  in
  let reloc_bytes = if options.emit_relocs then 24 * totals.relocs else 0 in
  let non_text =
    List.filter_map Fun.id
      [
        mk ".rodata" Objfile.Section.Rodata totals.rodata;
        mk ".data" Objfile.Section.Data totals.data;
        mk ".eh_frame" Objfile.Section.Eh_frame totals.eh_frame;
        mk ".llvm_bb_addr_map" Objfile.Section.Bb_addr_map bbmap_bytes;
        mk ".rela.text" Objfile.Section.Rela reloc_bytes;
        mk ".symtab" Objfile.Section.Symtab symtab_bytes;
      ]
  in
  let binary =
    Binary.make ~name ~entry_symbol:entry ~sections:(placed_texts w (w.nsec - 1) non_text)
      ~symbols:syms ~blocks
      ~first_branch:(Array.sub w.piece_branch 0 (w.np + 1))
      ~branch_inst:(Array.sub w.inst 0 w.nb) ~branch_dead:(Bytes.sub w.dead 0 w.nb) ~func_ids
      ~positions ~text_start:text_base ~text_end ~bb_addr_map
  in
  return_work w;
  let stats =
    {
      input_bytes;
      output_bytes = Binary.total_size binary;
      num_input_sections;
      relax_iters;
      deleted_jumps = tally.deleted;
      shrunk_branches = tally.shrunk;
      peak_mem_bytes = Costmodel.peak_mem ~input_bytes ~num_sections:num_input_sections;
      cpu_seconds =
        Costmodel.cpu_seconds ~input_bytes ~num_sections:num_input_sections ~relax_iters;
    }
  in
  Obs.Recorder.incr_counter recorder "linker.links";
  Obs.Recorder.add_counter recorder "linker.relax.iters" relax_iters;
  Obs.Recorder.add_counter recorder "linker.relax.deleted_jumps" tally.deleted;
  Obs.Recorder.add_counter recorder "linker.relax.shrunk_branches" tally.shrunk;
  if tally.grown > 0 then
    Obs.Recorder.add_counter recorder "linker.relax.grown_branches" tally.grown;
  Obs.Recorder.add_counter recorder "linker.symbols.resolved" (Hashtbl.length syms);
  Obs.Recorder.observe recorder "linker.cpu_seconds" stats.cpu_seconds;
  { binary; stats }
