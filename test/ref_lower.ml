(* Lowering as it stood before each piece's code was built in one pass,
   kept here only as the oracle that [Codegen.Lower.lower_func] must
   reproduce section for section. A block's code is the [concat_map] of
   one- and two-element lists per instruction with the terminator's
   appended by [@]; a section that begins with a landing pad re-conses
   its first piece with the nop; the address map pairs each piece with
   its offset and re-folds [Isa.size] over its instructions for its
   size. *)

let lower_inst ~prefetch (i : Ir.Inst.t) : Isa.t list =
  match i with
  | Ir.Inst.Compute n -> [ Isa.Alu n ]
  | Ir.Inst.MemLoad n -> [ Isa.Load n ]
  | Ir.Inst.DelinquentLoad { bytes; _ } ->
    if prefetch then [ Isa.Prefetch; Isa.Load bytes ] else [ Isa.Load bytes ]
  | Ir.Inst.MemStore n -> [ Isa.Store n ]
  | Ir.Inst.DirectCall f -> [ Isa.Call (Isa.Target.Func f) ]
  | Ir.Inst.VirtualCall _ -> [ Isa.IndirectCall ]
  | Ir.Inst.JumpTableData n -> [ Isa.InlineData n ]

let lower_term ~func (t : Ir.Term.t) : Isa.t list =
  let blk block = Isa.Target.Block { func; block } in
  match t with
  | Ir.Term.Jump target -> [ Isa.Jmp { target = blk target; encoding = Isa.Long } ]
  | Ir.Term.Branch { cond; taken; fallthrough; _ } ->
    [
      Isa.Jcc { cond; target = blk taken; encoding = Isa.Long };
      Isa.Jmp { target = blk fallthrough; encoding = Isa.Long };
    ]
  | Ir.Term.Switch _ -> [ Isa.Alu 4; Isa.Load 7; Isa.IndirectJmp ]
  | Ir.Term.Return -> [ Isa.Ret ]

let lower_block ~prefetch ~func (b : Ir.Block.t) =
  List.concat_map (lower_inst ~prefetch) b.body @ lower_term ~func b.term

let can_fallthrough (b : Ir.Block.t) =
  match b.term with
  | Ir.Term.Branch _ | Ir.Term.Jump _ -> true
  | Ir.Term.Switch _ | Ir.Term.Return -> false

let cluster_section ~prefetch_blocks (f : Ir.Func.t) ~symbol blocks =
  let pieces =
    List.map
      (fun bid ->
        let b = Ir.Func.block f bid in
        {
          Objfile.Fragment.block = bid;
          insts = lower_block ~prefetch:(List.mem bid prefetch_blocks) ~func:f.name b;
          is_landing_pad = b.is_landing_pad;
        })
      blocks
  in
  let pieces =
    match pieces with
    | first :: rest when first.is_landing_pad ->
      { first with insts = Isa.Nop 1 :: first.insts } :: rest
    | _ -> pieces
  in
  let frag = Objfile.Fragment.make ~func:f.name pieces in
  Objfile.Section.make ~name:(".text." ^ symbol) ~kind:Objfile.Section.Text ~symbol
    (Objfile.Section.Code frag)

let bbmap_of_sections (f : Ir.Func.t) sections =
  let func_maps =
    List.filter_map
      (fun (s : Objfile.Section.t) ->
        match s.contents, s.symbol with
        | Objfile.Section.Code frag, Some sym ->
          let entries =
            List.map
              (fun ((p : Objfile.Fragment.piece), off) ->
                {
                  Objfile.Bbmap.bb_id = p.block;
                  offset = off;
                  size = List.fold_left (fun acc i -> acc + Isa.size i) 0 p.insts;
                  can_fallthrough = can_fallthrough (Ir.Func.block f p.block);
                  is_landing_pad = p.is_landing_pad;
                })
              (Testutil.piece_offsets frag)
          in
          Some { Objfile.Bbmap.func = sym; entries }
        | (Objfile.Section.Code _ | Objfile.Section.Map _ | Objfile.Section.Raw _), _ -> None)
      sections
  in
  Objfile.Section.make
    ~name:(".llvm_bb_addr_map." ^ f.name)
    ~kind:Objfile.Section.Bb_addr_map ~align:1 (Objfile.Section.Map func_maps)

let lower_func ~emit_bb_addr_map ~plan ~default_order ?(prefetch_blocks = []) (f : Ir.Func.t) =
  let texts =
    match plan with
    | None ->
      [
        cluster_section ~prefetch_blocks f ~symbol:(Objfile.Symname.primary f.name)
          default_order;
      ]
    | Some (p : Codegen.Directive.func_plan) -> (
      match Codegen.Directive.validate ~num_blocks:(Ir.Func.num_blocks f) p with
      | Error msg -> invalid_arg ("Ref_lower.lower_func: " ^ msg)
      | Ok () ->
        let listed = Hashtbl.create 16 in
        List.iter
          (fun (c : Codegen.Directive.cluster) ->
            List.iter (fun b -> Hashtbl.replace listed b ()) c.blocks)
          p.clusters;
        let leftovers =
          List.init (Ir.Func.num_blocks f) Fun.id
          |> List.filter (fun b -> not (Hashtbl.mem listed b))
        in
        let has_cold_cluster =
          List.exists
            (fun (c : Codegen.Directive.cluster) -> c.kind = Codegen.Directive.Cold)
            p.clusters
        in
        let clusters =
          if leftovers = [] then p.clusters
          else if has_cold_cluster then
            List.map
              (fun (c : Codegen.Directive.cluster) ->
                if c.kind = Codegen.Directive.Cold then { c with blocks = c.blocks @ leftovers }
                else c)
              p.clusters
          else p.clusters @ [ { Codegen.Directive.kind = Codegen.Directive.Cold; blocks = leftovers } ]
        in
        List.map
          (fun (c : Codegen.Directive.cluster) ->
            cluster_section ~prefetch_blocks f
              ~symbol:(Codegen.Directive.symbol f.name c)
              c.blocks)
          clusters)
  in
  if emit_bb_addr_map then texts @ [ bbmap_of_sections f texts ] else texts
