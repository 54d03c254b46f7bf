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

(* Mutable working form of a text section during relaxation. Only Jcc
   and Jmp ever change encoding or die, so a piece keeps mutable state
   for its branches alone and hands its fragment's own instruction list
   to the output when none of them changed. Branch targets are resolved
   to piece/section references up front so the relaxation sweeps never
   consult a symbol table. *)
type wpiece = {
  block : int;
  src : Isa.t list;  (** The fragment's instructions, as compiled. *)
  sites : Isa.t array;  (** Its Jcc, Jmp and Call, in instruction order. *)
  branches : wbranch array;  (** Its Jcc and Jmp, in instruction order. *)
  mutable size : int;  (** Bytes of the live instructions. *)
  mutable touched : bool;  (** Some branch died or changed. *)
  mutable paddr : int;
  is_landing_pad : bool;
}

and wbranch = {
  mutable i : Isa.t;
  mutable dead : bool;
  mutable tgt : wtarget;
  mutable pinned : bool;  (** Grown back to long (rule 4): never shrinks again. *)
  pre_bytes : int;  (** Non-branch bytes since the previous branch or piece start. *)
  pre_count : int;  (** Non-branch instructions in that run. *)
}

and wtarget = No_target | To_piece of wpiece | To_sec_addr of int ref

type wsec = {
  sname : string;
  ssymbol : string option;
  sfunc : string;
  salign : int;
  pieces : wpiece array;
  saddr : int ref;
  had_bbmap : bool;
}

(* Placeholder for unfilled piece slots. *)
let absent =
  { block = -1; src = []; sites = [||]; branches = [||]; size = 0; touched = false; paddr = 0;
    is_landing_pad = false }

let align_up v a = if a <= 1 then v else (v + a - 1) / a * a

let sec_size s = Array.fold_left (fun acc p -> acc + p.size) 0 s.pieces

let target_addr b =
  match b.tgt with
  | No_target -> invalid_arg "Link.target_addr: no target"
  | To_piece p -> p.paddr
  | To_sec_addr a -> !a

(* Assign piece/section addresses sequentially from [base]. *)
let assign_addresses base sections =
  let cur = ref base in
  List.iter
    (fun s ->
      cur := align_up !cur s.salign;
      s.saddr := !cur;
      Array.iter
        (fun p ->
          p.paddr <- !cur;
          cur := !cur + p.size)
        s.pieces)
    sections;
  !cur

(* One walk over a piece's instructions: its byte size, its relocation
   sites (branches and direct calls) and its branches, each with the
   run of non-branch instructions before it. *)
let wpiece_of_piece (p : Objfile.Fragment.piece) =
  let rec walk insts ~size ~run_bytes ~run_count ~nsites sites ~nb branches =
    match insts with
    | [] -> (size, nsites, sites, nb, branches)
    | (Isa.Jcc _ | Isa.Jmp _) as i :: rest ->
      let b =
        { i; dead = false; tgt = No_target; pinned = false; pre_bytes = run_bytes;
          pre_count = run_count }
      in
      walk rest ~size:(size + Isa.size i) ~run_bytes:0 ~run_count:0 ~nsites:(nsites + 1)
        (i :: sites) ~nb:(nb + 1) (b :: branches)
    | Isa.Call _ as i :: rest ->
      let sz = Isa.size i in
      walk rest ~size:(size + sz) ~run_bytes:(run_bytes + sz) ~run_count:(run_count + 1)
        ~nsites:(nsites + 1) (i :: sites) ~nb branches
    | i :: rest ->
      let sz = Isa.size i in
      walk rest ~size:(size + sz) ~run_bytes:(run_bytes + sz) ~run_count:(run_count + 1)
        ~nsites sites ~nb branches
  in
  let size, nsites, sites, nb, branches =
    walk p.insts ~size:0 ~run_bytes:0 ~run_count:0 ~nsites:0 [] ~nb:0 []
  in
  (* Both lists are reversed. *)
  let array_of_rev n rev =
    match rev with
    | [] -> [||]
    | last :: _ ->
      let arr = Array.make n last in
      List.iteri (fun k x -> arr.(n - 1 - k) <- x) rev;
      arr
  in
  { block = p.block; src = p.insts; sites = array_of_rev nsites sites;
    branches = array_of_rev nb branches; size; touched = false; paddr = 0;
    is_landing_pad = p.is_landing_pad }

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

(* The single pass over the inputs: every code section's working form,
   in input order, plus the totals above. Address-map presence is only
   looked up when the map is kept. *)
let gather options objs =
  let t =
    { input_bytes = 0; num_input_sections = 0; relocs = 0; rodata = 0; data = 0; eh_frame = 0 }
  in
  let texts =
    List.concat_map
      (fun (o : Objfile.File.t) ->
        let text_sections = ref 0 in
        let secs =
          List.filter_map
            (fun (s : Objfile.Section.t) ->
              t.num_input_sections <- t.num_input_sections + 1;
              if s.kind = Objfile.Section.Text then incr text_sections;
              let size, sec =
                match s.contents with
                | Objfile.Section.Code frag ->
                  let n = List.length frag.pieces in
                  let pieces = Array.make n absent in
                  let size = ref 0 in
                  List.iteri
                    (fun k piece ->
                      let wp = wpiece_of_piece piece in
                      pieces.(k) <- wp;
                      size := !size + wp.size;
                      t.relocs <- t.relocs + Array.length wp.sites)
                    frag.pieces;
                  let had_bbmap =
                    options.keep_bb_addr_map
                    && List.exists
                         (fun (m : Objfile.Section.t) -> is_bbmap_of ~func:frag.func m.name)
                         o.sections
                  in
                  ( !size,
                    Some
                      {
                        sname = s.name;
                        ssymbol = s.symbol;
                        sfunc = frag.func;
                        salign = s.align;
                        pieces;
                        saddr = ref 0;
                        had_bbmap;
                      } )
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

(* A function's placed pieces, indexed by block id (IR block ids are
   dense, see [Ir.Func.make]); [absent] marks unused slots. *)
type wfunc = { mutable by_block : wpiece array }

(* The piece of [block], or [absent]. *)
let find_block wf block =
  if block >= 0 && block < Array.length wf.by_block then wf.by_block.(block) else absent

(* Register every section and block, then resolve every branch target
   to its piece/section in one walk of the relocation sites. A target
   in the branch's own function is indexed straight from the section's
   function, with no hash probe. Calls are resolved only to check them:
   relaxation never moves them. *)
let resolve_targets sections =
  let syms : (string, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let funcs : (string, wfunc) Hashtbl.t = Hashtbl.create 256 in
  let func_of s =
    match Hashtbl.find_opt funcs s.sfunc with
    | Some wf -> wf
    | None ->
      let wf = { by_block = [||] } in
      Hashtbl.add funcs s.sfunc wf;
      wf
  in
  let wfuncs =
    List.map
      (fun s ->
        (match s.ssymbol with
        | Some sym ->
          if Hashtbl.mem syms sym then raise (Link_error ("duplicate symbol " ^ sym));
          Hashtbl.add syms sym s.saddr
        | None -> ());
        let wf = func_of s in
        Array.iter
          (fun p ->
            let n = Array.length wf.by_block in
            if p.block >= n then begin
              let grown = Array.make (max (2 * n) (p.block + 1)) absent in
              Array.blit wf.by_block 0 grown 0 n;
              wf.by_block <- grown
            end;
            if wf.by_block.(p.block) != absent then
              raise (Link_error (Printf.sprintf "block %s#%d defined twice" s.sfunc p.block));
            wf.by_block.(p.block) <- p)
          s.pieces;
        wf)
      sections
  in
  let block_target s wf func block =
    let piece =
      if func == s.sfunc || String.equal func s.sfunc then find_block wf block
      else
        match Hashtbl.find_opt funcs func with
        | Some wf -> find_block wf block
        | None -> absent
    in
    if piece == absent then
      raise (Link_error (Printf.sprintf "unresolved block target %s#%d" func block));
    To_piece piece
  in
  let func_target f =
    match Hashtbl.find_opt syms f with
    | Some addr -> To_sec_addr addr
    | None -> raise (Link_error ("unresolved function symbol " ^ f))
  in
  List.iter2
    (fun s wf ->
      Array.iter
        (fun p ->
          (* [k] counts the branches passed: the sites hold them in the
             order [p.branches] does. *)
          let k = ref 0 in
          Array.iter
            (fun i ->
              match i with
              | Isa.Jcc { target; _ } | Isa.Jmp { target; _ } ->
                p.branches.(!k).tgt <-
                  (match target with
                  | Isa.Target.Block { func; block } -> block_target s wf func block
                  | Isa.Target.Func f -> func_target f);
                incr k
              | Isa.Call (Isa.Target.Block { func; block }) -> ignore (block_target s wf func block)
              | Isa.Call (Isa.Target.Func f) -> ignore (func_target f)
              | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.IndirectCall | Isa.IndirectJmp
              | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false)
            p.sites)
        s.pieces)
    sections wfuncs;
  syms

(* Index of the next live branch at or after [j] when only dead
   branches lie between, or [-1] when a (never deleted) non-branch
   instruction or the piece end comes first. *)
let rec next_live_branch bs n j =
  if j >= n then -1
  else
    let b = bs.(j) in
    if b.pre_count > 0 then -1 else if b.dead then next_live_branch bs n (j + 1) else j

(* Relaxation tallies: the [stats] counters, and whether the current
   sweep changed anything. *)
type tally = {
  mutable deleted : int;
  mutable shrunk : int;
  mutable grown : int;
  mutable changed : bool;
}

let kill t p b size =
  b.dead <- true;
  p.size <- p.size - size;
  p.touched <- true;
  t.deleted <- t.deleted + 1;
  t.changed <- true

let recode t p b i =
  p.size <- p.size + Isa.size i - Isa.size b.i;
  b.i <- i;
  p.touched <- true;
  t.changed <- true

let grow t p b i =
  recode t p b i;
  b.pinned <- true;
  t.grown <- t.grown + 1

(* Relax one piece's branches, walking its addresses from [p.paddr]. *)
let relax_piece t p =
  let bs = p.branches in
  let n = Array.length bs in
  let addr = ref p.paddr in
  for k = 0 to n - 1 do
    let b = bs.(k) in
    addr := !addr + b.pre_bytes;
    if not b.dead then begin
      let size = Isa.size b.i in
      let after = !addr + size in
      (match b.i with
      | Isa.Jmp { target; encoding } -> (
        let tgt = target_addr b in
        if tgt = after then kill t p b size
        else
          match encoding with
          | Isa.Long ->
            if (not b.pinned) && Isa.fits_short (tgt - (!addr + Isa.jmp_size Isa.Short)) then begin
              recode t p b (Isa.Jmp { target; encoding = Isa.Short });
              t.shrunk <- t.shrunk + 1
            end
          | Isa.Short ->
            if not (Isa.fits_short (tgt - after)) then
              grow t p b (Isa.Jmp { target; encoding = Isa.Long }))
      | Isa.Jcc { cond; target; encoding } -> (
        let tgt = target_addr b in
        let reversed =
          match next_live_branch bs n (k + 1) with
          | -1 -> false
          | j -> (
            let jb = bs.(j) in
            match jb.i with
            | Isa.Jmp { target = jmp_target; _ } ->
              let jmp_size = Isa.size jb.i in
              if tgt = after + jmp_size then begin
                b.i <- Isa.Jcc { cond = Isa.Cond.negate cond; target = jmp_target; encoding };
                b.tgt <- jb.tgt;
                kill t p jb jmp_size;
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
            if (not b.pinned) && Isa.fits_short (tgt - (!addr + Isa.jcc_size Isa.Short)) then begin
              recode t p b (Isa.Jcc { cond; target; encoding = Isa.Short });
              t.shrunk <- t.shrunk + 1
            end
          | Isa.Short ->
            if not (Isa.fits_short (tgt - after)) then
              grow t p b (Isa.Jcc { cond; target; encoding = Isa.Long }))
      | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall | Isa.IndirectJmp
      | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> assert false);
      if not b.dead then addr := !addr + Isa.size b.i
    end
  done

(* One relaxation sweep over every branch; returns whether anything
   changed. Each piece walks from the address assigned before the
   sweep, and targets read those same addresses. Rules:
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
let relax_sweep t sections =
  t.changed <- false;
  List.iter
    (fun s -> Array.iter (fun p -> if Array.length p.branches > 0 then relax_piece t p) s.pieces)
    sections;
  t.changed

(* The piece's final instructions: the fragment's own list when no
   branch changed, else that list with the branches' final state. *)
let final_insts p =
  if not p.touched then p.src
  else
    let rec build k = function
      | [] -> []
      | ((Isa.Jcc _ | Isa.Jmp _) :: rest) ->
        let b = p.branches.(k) in
        if b.dead then build (k + 1) rest else b.i :: build (k + 1) rest
      | i :: rest -> i :: build k rest
    in
    build 0 p.src

let rec last_inst = function [] -> None | [ i ] -> Some i | _ :: rest -> last_inst rest

let symtab_bytes syms =
  Hashtbl.fold (fun name _ acc -> acc + 24 + String.length name + 1) syms 0

let link_with ?recorder ?(options = default_options) ~name ~entry objs =
  let recorder =
    match recorder with Some r -> r | None -> Obs.Recorder.global
  in
  let gathered, totals = gather options objs in
  let input_bytes = totals.input_bytes and num_input_sections = totals.num_input_sections in
  let texts = order_text_sections options gathered in
  let syms = resolve_targets texts in
  if not (Hashtbl.mem syms entry) then raise (Link_error ("undefined entry symbol " ^ entry));
  let text_base = align_up options.base_addr options.text_align in
  let tally = { deleted = 0; shrunk = 0; grown = 0; changed = false } in
  let rec fix iters =
    ignore (assign_addresses text_base texts);
    if options.relax && iters < 32 && relax_sweep tally texts then fix (iters + 1)
    else iters
  in
  let relax_iters = fix 1 in
  let text_end = assign_addresses text_base texts in
  (* Final block infos and, for retained metadata, the address map
     re-encoded against final addresses. *)
  let blocks = Hashtbl.create 4096 in
  let bb_maps =
    List.filter_map
      (fun s ->
        let entries = ref [] in
        Array.iter
          (fun p ->
            let insts = final_insts p in
            Hashtbl.add blocks (s.sfunc, p.block)
              { Binary.func = s.sfunc; block = p.block; addr = p.paddr; size = p.size; insts };
            if s.had_bbmap then begin
              let can_fallthrough =
                match last_inst insts with
                | Some (Isa.Jmp _ | Isa.Ret | Isa.IndirectJmp) -> false
                | Some _ | None -> true
              in
              entries :=
                {
                  Objfile.Bbmap.bb_id = p.block;
                  offset = p.paddr - !(s.saddr);
                  size = p.size;
                  can_fallthrough;
                  is_landing_pad = p.is_landing_pad;
                }
                :: !entries
            end)
          s.pieces;
        match s.ssymbol with
        | Some sym when s.had_bbmap ->
          Some { Objfile.Bbmap.func = sym; entries = List.rev !entries }
        | Some _ | None -> None)
      texts
  in
  let final_syms = Hashtbl.create (Hashtbl.length syms) in
  Hashtbl.iter (fun sym addr -> Hashtbl.replace final_syms sym !addr) syms;
  (* Placed sections: text in layout order, then aggregated non-text. *)
  let placed_texts =
    List.map
      (fun s ->
        {
          Binary.name = s.sname;
          kind = Objfile.Section.Text;
          addr = !(s.saddr);
          size = sec_size s;
          symbol = s.ssymbol;
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
      ~symbols:final_syms ~blocks ~text_start:text_base ~text_end ~bb_maps
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
