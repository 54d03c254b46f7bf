type result = {
  binary : Linker.Binary.t;
  new_text_bytes : int;
  old_text_bytes : int;
  rewritten_funcs : int;
}

let long_form (i : Isa.t) =
  match i with
  | Isa.Jcc j -> Isa.Jcc { j with encoding = Isa.Long }
  | Isa.Jmp j -> Isa.Jmp { j with encoding = Isa.Long }
  | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall | Isa.IndirectJmp
  | Isa.Ret | Isa.Prefetch | Isa.Nop _ | Isa.InlineData _ -> i

(* Shave a byte off oversized ALU ops: stand-in for BOLT's peephole and
   macro-fusion-friendly rewrites on hot code (a ~1-2% effect). *)
let peephole_inst (i : Isa.t) =
  match i with
  | Isa.Alu n when n >= 10 -> Isa.Alu (n - 1)
  | Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Jcc _ | Isa.Jmp _ | Isa.Call _
  | Isa.IndirectCall | Isa.IndirectJmp | Isa.Ret | Isa.Prefetch | Isa.Nop _
  | Isa.InlineData _ -> i

(* Reconstruct a block in relocatable form: normalise branches back to
   their long encodings and make the fall-through explicit again —
   undoing what the original link's relaxation specialised for the old
   layout. *)
let canonical_insts (binary : Linker.Binary.t) pos ~peephole =
  let info = binary.blocks.(pos) and insts = Linker.Binary.insts binary pos in
  let insts = if peephole then List.map peephole_inst insts else insts in
  let rec split_last acc = function
    | [] -> (List.rev acc, None)
    | [ x ] -> (List.rev acc, Some x)
    | x :: rest -> split_last (x :: acc) rest
  in
  let body, last = split_last [] insts in
  let fallthrough_target () =
    match Linker.Binary.find_block_by_addr binary (info.addr + info.size) with
    | Some nxt when String.equal nxt.func info.func ->
      Some (Isa.Target.Block { func = info.func; block = nxt.block })
    | Some _ | None -> None
  in
  let explicit_ft tail =
    match fallthrough_target () with
    | Some target -> tail @ [ Isa.Jmp { target; encoding = Isa.Long } ]
    | None -> tail
  in
  match last with
  | None -> explicit_ft []
  | Some (Isa.Ret | Isa.IndirectJmp) -> List.map long_form insts
  | Some (Isa.Jmp j) -> List.map long_form body @ [ Isa.Jmp { j with encoding = Isa.Long } ]
  | Some (Isa.Jcc _ as jcc) -> explicit_ft (List.map long_form (body @ [ jcc ]))
  | Some
      (Isa.Alu _ | Isa.Load _ | Isa.Store _ | Isa.Call _ | Isa.IndirectCall | Isa.Prefetch
      | Isa.Nop _ | Isa.InlineData _) -> explicit_ft (List.map long_form insts)

let rewrite ~ctx ~(binary : Linker.Binary.t) ~plans ~func_order ~peephole ~name =
  let idx = Linker.Binary.index binary in
  let old_order f =
    Array.to_list (Linker.Binary.func_blocks idx f)
    |> List.map (fun i -> idx.ordered.(i).Linker.Binary.block)
  in
  let plan_tbl = Hashtbl.create 256 in
  List.iter (fun (f, hot, cold) -> Hashtbl.replace plan_tbl f (hot, cold)) plans;
  let piece f bb ~hot =
    {
      Objfile.Fragment.block = bb;
      insts =
        canonical_insts binary
          (Linker.Binary.block_positions binary f).(bb)
          ~peephole:(peephole && hot);
      is_landing_pad = false;
    }
  in
  let section sym f bbs ~hot =
    Objfile.Section.make ~name:(".text.bolt." ^ sym) ~kind:Objfile.Section.Text ~symbol:sym
      (Objfile.Section.Code
         (Objfile.Fragment.make ~func:f (List.map (fun bb -> piece f bb ~hot) bbs)))
  in
  (* Optimized functions: primary + cold sections; others verbatim. *)
  let optimized = Hashtbl.create 256 in
  let sections = ref [] in
  let ordering_hot = ref [] and ordering_rest = ref [] and ordering_cold = ref [] in
  List.iter
    (fun f ->
      match Hashtbl.find_opt plan_tbl f with
      | None -> ()
      | Some (hot, cold) ->
        Hashtbl.replace optimized f ();
        sections := section f f hot ~hot:true :: !sections;
        ordering_hot := f :: !ordering_hot;
        if cold <> [] then begin
          let sym = Objfile.Symname.cold f in
          sections := section sym f cold ~hot:false :: !sections;
          ordering_cold := sym :: !ordering_cold
        end)
    func_order;
  (* Remaining functions in old address order of their entries. *)
  let rest =
    Linker.Binary.funcs binary
    |> List.filter_map (fun f ->
           if Hashtbl.mem optimized f then None
           else
             Option.map
               (fun (e : Linker.Binary.block_info) -> (e.addr, f))
               (Linker.Binary.block_info binary ~func:f ~block:0))
    |> List.sort compare
  in
  List.iter
    (fun (_, f) ->
      sections := section f f (old_order f) ~hot:false :: !sections;
      ordering_rest := f :: !ordering_rest)
    rest;
  let ordering =
    List.rev !ordering_hot @ List.rev !ordering_rest @ List.rev !ordering_cold
  in
  (* Non-text payloads carried over from the original binary; cold
     splits add CFI FDE overhead (one 56-byte fragment FDE each). *)
  let kind_size k = Linker.Binary.size_of_kind binary k in
  let eh = kind_size Objfile.Section.Eh_frame + (56 * List.length !ordering_cold) in
  let raw nm k size =
    if size = 0 then []
    else [ Objfile.Section.make ~name:nm ~kind:k (Objfile.Section.Raw size) ]
  in
  let payload =
    raw ".rodata" Objfile.Section.Rodata (kind_size Objfile.Section.Rodata)
    @ raw ".data" Objfile.Section.Data (kind_size Objfile.Section.Data)
    @ raw ".eh_frame" Objfile.Section.Eh_frame eh
  in
  let obj =
    Objfile.File.make ~name:(name ^ ".bolt.o") ~unit_name:(name ^ ".bolt")
      (List.rev !sections @ payload)
  in
  let old_text_bytes = Linker.Binary.text_bytes binary in
  let options =
    {
      Linker.Link.default_options with
      ordering = Some ordering;
      base_addr = binary.text_end;
      text_align = 2 * 1024 * 1024;
      relax = true;
      (* BOLTed binaries keep their static relocations (they cannot be
         stripped, paper 5.8). *)
      emit_relocs = true;
    }
  in
  let { Linker.Link.binary = linked; stats = _ } =
    Linker.Link.link ~ctx ~options ~name ~entry:binary.entry_symbol [ obj ]
  in
  (* The original text is retained as dead bytes below the new segment. *)
  let old_text =
    {
      Linker.Binary.name = ".text";
      kind = Objfile.Section.Text;
      addr = binary.text_start;
      size = old_text_bytes;
      symbol = None;
    }
  in
  let final =
    Linker.Binary.make ~name:linked.name ~entry_symbol:linked.entry_symbol
      ~sections:(old_text :: linked.sections) ~symbols:linked.symbols ~blocks:linked.blocks
      ~first_branch:linked.first_branch ~branch_inst:linked.branch_inst
      ~branch_dead:linked.branch_dead ~func_ids:linked.func_ids ~positions:linked.positions
      ~text_start:binary.text_start ~text_end:linked.text_end ~bb_addr_map:[||]
  in
  {
    binary = final;
    new_text_bytes = Linker.Binary.text_bytes linked;
    old_text_bytes;
    rewritten_funcs = Hashtbl.length optimized;
  }
