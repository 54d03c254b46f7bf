(* The link runs over flat arrays. It gathers the inputs' code
   sections and totals, orders the sections by the ordering file,
   numbers their pieces and branches in that layout order ([number]),
   resolves every branch target ([resolve_targets]), then assigns
   addresses and relaxes until the fixpoint. Pieces are numbered in
   layout order, so piece [i] becomes the binary's block [i]: the
   output needs no table of blocks, and the per-function arrays built
   to resolve targets become [Binary]'s lookups by block id. *)

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

(* A code section of the inputs, as gathered and ordered. *)
type sec = {
  sname : string;
  ssymbol : string option;
  salign : int;
  frag : Objfile.Fragment.t;
  had_bbmap : bool;
}

(* The working state of relaxation, in flat arrays. The ordered
   sections' pieces are numbered globally in layout order, so a
   piece's number is its output block's position, and so are their
   branches (the Jcc and Jmp sites). Only Jcc and Jmp ever change
   encoding or die, so a piece hands its fragment's own instruction
   list to the output when none of its branches changed. Sizes and the
   runs between branches start as the fragment index's, computed once
   when the object was made. A branch target is a piece number, or
   [-(s + 1)] for the function symbol of section [s], resolved up
   front so the sweeps never consult a symbol table. *)
type work = {
  secs : sec array;  (** In layout order. *)
  sec_piece : int array;
      (** Section [s] holds pieces [sec_piece.(s)] to [sec_piece.(s + 1) - 1]. *)
  saddr : int array;  (** Per section: its address. *)
  src : Objfile.Fragment.piece array;  (** Per piece: as compiled. *)
  size : int array;  (** Per piece: bytes of the live instructions. *)
  addr : int array;
  touched : bool array;  (** Per piece: some branch died or changed. *)
  piece_branch : int array;
      (** Piece [i] holds branches [piece_branch.(i)] to [piece_branch.(i + 1) - 1]. *)
  inst : Isa.t array;  (** Per branch: its current encoding. *)
  dead : bool array;
  pinned : bool array;  (** Grown back to long (rule 4): never shrinks again. *)
  target : int array;
  pre_bytes : int array;  (** Non-branch bytes since the previous branch or piece start. *)
  pre_count : int array;  (** Non-branch instructions in that run. *)
}

(* Number the ordered sections' pieces and branches. Branch
   instructions and targets are filled by [resolve_targets]. *)
let number (secs : sec array) =
  let nsec = Array.length secs in
  let sec_piece = Array.make (nsec + 1) 0 and sec_branch = Array.make (nsec + 1) 0 in
  Array.iteri
    (fun s (sec : sec) ->
      let ix = sec.frag.index in
      let np = Array.length ix.sizes in
      sec_piece.(s + 1) <- sec_piece.(s) + np;
      sec_branch.(s + 1) <- sec_branch.(s) + ix.branch_start.(np))
    secs;
  let np = sec_piece.(nsec) and nb = sec_branch.(nsec) in
  let w =
    {
      secs;
      sec_piece;
      saddr = Array.make nsec 0;
      src = Array.make np { Objfile.Fragment.block = 0; insts = []; is_landing_pad = false };
      size = Array.make np 0;
      addr = Array.make np 0;
      touched = Array.make np false;
      piece_branch = Array.make (np + 1) nb;
      inst = Array.make nb Isa.Ret;
      dead = Array.make nb false;
      pinned = Array.make nb false;
      target = Array.make nb 0;
      pre_bytes = Array.make nb 0;
      pre_count = Array.make nb 0;
    }
  in
  Array.iteri
    (fun s (sec : sec) ->
      let ix = sec.frag.index in
      let p0 = sec_piece.(s) and b0 = sec_branch.(s) in
      let n = Array.length ix.sizes in
      List.iteri (fun k piece -> w.src.(p0 + k) <- piece) sec.frag.pieces;
      Array.blit ix.sizes 0 w.size p0 n;
      for k = 0 to n - 1 do
        w.piece_branch.(p0 + k) <- b0 + ix.branch_start.(k)
      done;
      let nbr = sec_branch.(s + 1) - b0 in
      Array.blit ix.pre_bytes 0 w.pre_bytes b0 nbr;
      Array.blit ix.pre_count 0 w.pre_count b0 nbr)
    secs;
  w

(* Assign piece/section addresses sequentially from [base]. *)
let assign_addresses base w =
  let cur = ref base in
  Array.iteri
    (fun s (sec : sec) ->
      cur := align_up !cur sec.salign;
      w.saddr.(s) <- !cur;
      for i = w.sec_piece.(s) to w.sec_piece.(s + 1) - 1 do
        w.addr.(i) <- !cur;
        cur := !cur + w.size.(i)
      done)
    w.secs;
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

(* [name = bbmap_prefix ^ func], without building the concatenation. *)
let is_bbmap_of ~func name =
  let pl = String.length bbmap_prefix and fl = String.length func in
  String.length name = pl + fl
  && String.starts_with ~prefix:bbmap_prefix name
  &&
  let rec eq k = k >= fl || (Char.equal name.[pl + k] func.[k] && eq (k + 1)) in
  eq 0

(* Input-side totals the output needs, summed in the gather pass. *)
type totals = {
  mutable input_bytes : int;
  mutable num_input_sections : int;
  mutable relocs : int;
  mutable rodata : int;
  mutable data : int;
  mutable eh_frame : int;
}

(* The single pass over the inputs: every code section, in input order,
   plus the totals above. Address-map sections are only looked for
   when the map is kept, once per object. *)
let gather options objs =
  let t =
    { input_bytes = 0; num_input_sections = 0; relocs = 0; rodata = 0; data = 0; eh_frame = 0 }
  in
  let texts =
    List.concat_map
      (fun (o : Objfile.File.t) ->
        let text_sections = ref 0 in
        let maps =
          if options.keep_bb_addr_map then
            List.filter
              (fun (m : Objfile.Section.t) -> String.starts_with ~prefix:bbmap_prefix m.name)
              o.sections
          else []
        in
        let secs =
          List.filter_map
            (fun (s : Objfile.Section.t) ->
              t.num_input_sections <- t.num_input_sections + 1;
              if s.kind = Objfile.Section.Text then incr text_sections;
              let size, sec =
                match s.contents with
                | Objfile.Section.Code frag ->
                  t.relocs <- t.relocs + Array.length frag.index.sites;
                  let had_bbmap =
                    List.exists
                      (fun (m : Objfile.Section.t) -> is_bbmap_of ~func:frag.func m.name)
                      maps
                  in
                  ( frag.index.bytes,
                    Some { sname = s.name; ssymbol = s.symbol; salign = s.align; frag; had_bbmap }
                  )
                | Objfile.Section.Map _ | Objfile.Section.Raw _ -> (Objfile.Section.size s, None)
              in
              t.input_bytes <- t.input_bytes + size;
              (match s.kind with
              | Objfile.Section.Rodata -> t.rodata <- t.rodata + size
              | Data -> t.data <- t.data + size
              | Eh_frame -> t.eh_frame <- t.eh_frame + size
              | Text | Bb_addr_map | Rela | Debug | Symtab -> ());
              sec)
            o.sections
        in
        (* Two DWARF range relocations per text section beyond the
           first, as {!Objfile.File.num_relocations} counts them. *)
        t.relocs <- t.relocs + (2 * max 0 (!text_sections - 1));
        secs)
      objs
  in
  (texts, t)

let order_text_sections options all =
  match options.ordering with
  | None -> all
  | Some syms ->
    let rank = Hashtbl.create (List.length syms) in
    List.iteri (fun i s -> if not (Hashtbl.mem rank s) then Hashtbl.add rank s i) syms;
    let ranked, unranked =
      List.partition
        (fun s -> match s.ssymbol with Some sym -> Hashtbl.mem rank sym | None -> false)
        all
    in
    let key s = match s.ssymbol with Some sym -> Hashtbl.find rank sym | None -> max_int in
    List.stable_sort (fun a b -> compare (key a) (key b)) ranked @ unranked

(* Register every section's symbol and every piece by (function, block
   id), then resolve every branch target in one walk of each
   fragment's relocation sites, which also fills each branch's
   instruction. A function's pieces are indexed by block id (IR block
   ids are dense, see [Ir.Func.make]), [-1] marking unused slots; a
   target in the branch's own function is indexed straight from its
   section's array. Calls are resolved only to check them: relaxation
   never moves them. Returns the symbol table (symbol -> section) and
   the per-function arrays. *)
let resolve_targets w =
  let syms : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let positions : (string, int array) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun s (sec : sec) ->
      (match sec.ssymbol with
      | Some sym ->
        if Hashtbl.mem syms sym then raise (Link_error ("duplicate symbol " ^ sym));
        Hashtbl.add syms sym s
      | None -> ());
      let func = sec.frag.func in
      let by_block = ref (Option.value (Hashtbl.find_opt positions func) ~default:[||]) in
      for i = w.sec_piece.(s) to w.sec_piece.(s + 1) - 1 do
        let block = w.src.(i).block in
        let n = Array.length !by_block in
        if block >= n then begin
          let grown = Array.make (max (2 * n) (block + 1)) (-1) in
          Array.blit !by_block 0 grown 0 n;
          by_block := grown
        end;
        if !by_block.(block) >= 0 then
          raise (Link_error (Printf.sprintf "block %s#%d defined twice" func block));
        !by_block.(block) <- i
      done;
      Hashtbl.replace positions func !by_block)
    w.secs;
  let piece_of own sfunc func block =
    let by_block =
      if func == sfunc || String.equal func sfunc then own
      else Option.value (Hashtbl.find_opt positions func) ~default:[||]
    in
    let i = if block >= 0 && block < Array.length by_block then by_block.(block) else -1 in
    if i < 0 then raise (Link_error (Printf.sprintf "unresolved block target %s#%d" func block));
    i
  in
  let func_target f =
    match Hashtbl.find_opt syms f with
    | Some s -> -(s + 1)
    | None -> raise (Link_error ("unresolved function symbol " ^ f))
  in
  Array.iteri
    (fun s (sec : sec) ->
      let sfunc = sec.frag.func in
      let own = Hashtbl.find positions sfunc in
      (* A fragment's sites hold its branches in branch order. *)
      let j = ref w.piece_branch.(w.sec_piece.(s)) in
      Array.iter
        (fun site ->
          match site with
          | Isa.Jcc { target; _ } | Isa.Jmp { target; _ } ->
            w.inst.(!j) <- site;
            w.target.(!j) <-
              (match target with
              | Isa.Target.Block { func; block } -> piece_of own sfunc func block
              | Isa.Target.Func f -> func_target f);
            incr j
          | Isa.Call (Isa.Target.Block { func; block }) -> ignore (piece_of own sfunc func block)
          | Isa.Call (Isa.Target.Func f) -> ignore (func_target f)
          | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret
          | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false)
        sec.frag.index.sites)
    w.secs;
  (syms, positions)

(* Index of the next live branch in [j, hi) when only dead branches lie
   between, or [-1] when a (never deleted) non-branch instruction or
   the piece end comes first. *)
let rec next_live_branch w hi j =
  if j >= hi then -1
  else if w.pre_count.(j) > 0 then -1
  else if w.dead.(j) then next_live_branch w hi (j + 1)
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
  w.dead.(j) <- true;
  w.size.(i) <- w.size.(i) - size;
  w.touched.(i) <- true;
  t.deleted <- t.deleted + 1;
  t.changed <- true

let recode t w i j inst =
  w.size.(i) <- w.size.(i) + Isa.size inst - Isa.size w.inst.(j);
  w.inst.(j) <- inst;
  w.touched.(i) <- true;
  t.changed <- true

let grow t w i j inst =
  recode t w i j inst;
  w.pinned.(j) <- true;
  t.grown <- t.grown + 1

(* Relax piece [i]'s branches, walking its addresses from its own. *)
let relax_piece t w i =
  let hi = w.piece_branch.(i + 1) in
  let addr = ref w.addr.(i) in
  for j = w.piece_branch.(i) to hi - 1 do
    addr := !addr + w.pre_bytes.(j);
    if not w.dead.(j) then begin
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
            if (not w.pinned.(j)) && Isa.fits_short (tgt - (!addr + Isa.jmp_size Isa.Short))
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
            if (not w.pinned.(j)) && Isa.fits_short (tgt - (!addr + Isa.jcc_size Isa.Short))
            then begin
              recode t w i j (Isa.Jcc { cond; target; encoding = Isa.Short });
              t.shrunk <- t.shrunk + 1
            end
          | Isa.Short ->
            if not (Isa.fits_short (tgt - after)) then
              grow t w i j (Isa.Jcc { cond; target; encoding = Isa.Long }))
      | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall | Isa.IndirectJmp
      | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false);
      if not w.dead.(j) then addr := !addr + Isa.size w.inst.(j)
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
  for i = 0 to Array.length w.src - 1 do
    if w.piece_branch.(i + 1) > w.piece_branch.(i) then relax_piece t w i
  done;
  t.changed

(* Piece [i]'s final instructions: the fragment's own list when no
   branch changed, else that list with the branches' final state. *)
let final_insts w i =
  let src = w.src.(i).insts in
  if not w.touched.(i) then src
  else
    let rec build j = function
      | [] -> []
      | (Isa.Jcc _ | Isa.Jmp _) :: rest ->
        if w.dead.(j) then build (j + 1) rest else w.inst.(j) :: build (j + 1) rest
      | i :: rest -> i :: build j rest
    in
    build w.piece_branch.(i) src

let rec last_inst = function [] -> None | [ i ] -> Some i | _ :: rest -> last_inst rest

(* Every piece's output block, in layout order, which is address
   order: piece [i] becomes [blocks.(i)]. *)
let output_blocks w =
  let s = ref 0 in
  Array.init (Array.length w.src) (fun i ->
      while w.sec_piece.(!s + 1) <= i do
        incr s
      done;
      {
        Binary.func = w.secs.(!s).frag.func;
        block = w.src.(i).block;
        addr = w.addr.(i);
        size = w.size.(i);
        insts = final_insts w i;
      })

(* Section [s]'s retained address map, re-encoded against its final
   [blocks]; [None] when its input carried none. *)
let bb_map w (blocks : Binary.block_info array) s =
  let sec = w.secs.(s) in
  match sec.ssymbol with
  | Some func when sec.had_bbmap ->
    let p0 = w.sec_piece.(s) in
    let entry k =
      let b = blocks.(p0 + k) in
      let can_fallthrough =
        match last_inst b.insts with
        | Some (Isa.Jmp _ | Isa.Ret | Isa.IndirectJmp) -> false
        | Some _ | None -> true
      in
      {
        Objfile.Bbmap.bb_id = b.block;
        offset = b.addr - w.saddr.(s);
        size = b.size;
        can_fallthrough;
        is_landing_pad = w.src.(p0 + k).is_landing_pad;
      }
    in
    Some { Objfile.Bbmap.func; entries = List.init (w.sec_piece.(s + 1) - p0) entry }
  | Some _ | None -> None

let symtab_bytes syms =
  Hashtbl.fold (fun name _ acc -> acc + 24 + String.length name + 1) syms 0

let link_with ?recorder ?(options = default_options) ~name ~entry objs =
  let recorder =
    match recorder with Some r -> r | None -> Obs.Recorder.global
  in
  let gathered, totals = gather options objs in
  let input_bytes = totals.input_bytes and num_input_sections = totals.num_input_sections in
  let w = number (Array.of_list (order_text_sections options gathered)) in
  let syms, positions = resolve_targets w in
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
  let texts = List.init (Array.length w.secs) Fun.id in
  let bb_maps = List.filter_map (bb_map w blocks) texts in
  let final_syms = Hashtbl.create (Hashtbl.length syms) in
  Hashtbl.iter (fun sym s -> Hashtbl.replace final_syms sym w.saddr.(s)) syms;
  (* Placed sections: text in layout order, then aggregated non-text. *)
  let placed_texts =
    List.map
      (fun s ->
        let sec = w.secs.(s) in
        {
          Binary.name = sec.sname;
          kind = Objfile.Section.Text;
          addr = w.saddr.(s);
          size = sec_size w s;
          symbol = sec.ssymbol;
        })
      texts
  in
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
  let bbmap_bytes = if options.keep_bb_addr_map then Objfile.Bbmap.encoded_size bb_maps else 0 in
  let non_text =
    List.filter_map Fun.id
      [
        mk ".rodata" Objfile.Section.Rodata totals.rodata;
        mk ".data" Objfile.Section.Data totals.data;
        mk ".eh_frame" Objfile.Section.Eh_frame totals.eh_frame;
        mk ".llvm_bb_addr_map" Objfile.Section.Bb_addr_map bbmap_bytes;
        mk ".rela.text" Objfile.Section.Rela reloc_bytes;
        mk ".symtab" Objfile.Section.Symtab (symtab_bytes final_syms);
      ]
  in
  let binary =
    Binary.make ~name ~entry_symbol:entry ~sections:(placed_texts @ non_text)
      ~symbols:final_syms ~blocks ~positions ~text_start:text_base ~text_end ~bb_maps
  in
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
  Obs.Recorder.add_counter recorder "linker.symbols.resolved" (Hashtbl.length final_syms);
  Obs.Recorder.observe recorder "linker.cpu_seconds" stats.cpu_seconds;
  { binary; stats }

let link ?ctx ?options ~name ~entry objs =
  link_with
    ?recorder:(Option.map (fun c -> c.Support.Ctx.recorder) ctx)
    ?options ~name ~entry objs
