let lower_term ~func (t : Ir.Term.t) : Isa.t list =
  match t with
  | Ir.Term.Jump block ->
    [ Isa.Jmp { target = Isa.Target.Block { func; block }; encoding = Isa.Long } ]
  | Ir.Term.Branch { cond; taken; fallthrough; _ } ->
    [
      Isa.Jcc { cond; target = Isa.Target.Block { func; block = taken }; encoding = Isa.Long };
      Isa.Jmp { target = Isa.Target.Block { func; block = fallthrough }; encoding = Isa.Long };
    ]
  | Ir.Term.Switch _ ->
    (* Index check + table load + indirect dispatch. *)
    [ Isa.Alu 4; Isa.Load 7; Isa.IndirectJmp ]
  | Ir.Term.Return -> [ Isa.Ret ]

(* The lowered code of [b] in one pass: each body instruction's code,
   then the terminator's as the list's tail, after the nop a landing
   pad that begins its section needs when [pad]. [@tail_mod_cons] makes
   the recursion a loop that fills in each cell's tail, so a long body
   cannot overflow the stack. *)
let lower_block ~prefetch ~pad ~func (b : Ir.Block.t) =
  let term = lower_term ~func b.term in
  let[@tail_mod_cons] rec body = function
    | [] -> term
    | (i : Ir.Inst.t) :: rest -> (
      match i with
      | Compute n -> Isa.Alu n :: body rest
      | MemLoad n -> Isa.Load n :: body rest
      | DelinquentLoad { bytes; _ } ->
        if prefetch then Isa.Prefetch :: Isa.Load bytes :: body rest
        else Isa.Load bytes :: body rest
      | MemStore n -> Isa.Store n :: body rest
      | DirectCall f -> Isa.Call (Isa.Target.Func f) :: body rest
      | VirtualCall _ -> Isa.IndirectCall :: body rest
      | JumpTableData n -> Isa.InlineData n :: body rest)
  in
  if pad then Isa.Nop 1 :: body b.body else body b.body

(* Worst-case (pre-relaxation) lowered size, computed without building
   the instruction list: body bytes plus the long-form terminator. *)
let term_bytes = function
  | Ir.Term.Jump _ -> Isa.jmp_size Isa.Long
  | Ir.Term.Branch _ -> Isa.jcc_size Isa.Long + Isa.jmp_size Isa.Long
  | Ir.Term.Switch _ -> 4 + 7 + 3
  | Ir.Term.Return -> 1

let block_code_bytes (b : Ir.Block.t) = Ir.Block.body_bytes b + term_bytes b.term

let can_fallthrough (b : Ir.Block.t) =
  match b.term with
  | Ir.Term.Branch _ | Ir.Term.Jump _ -> true
  | Ir.Term.Switch _ | Ir.Term.Return -> false

let section_name symbol = ".text." ^ symbol

(* The C++ ABI requires non-zero landing pad offsets relative to
   @LPStart, so a section that begins with a landing pad starts with a
   one-byte nop (paper §4.5). *)
let cluster_section ~prefetch_blocks (f : Ir.Func.t) ~symbol blocks =
  let pieces =
    List.mapi
      (fun k bid ->
        let b = Ir.Func.block f bid in
        {
          Objfile.Fragment.block = bid;
          insts =
            lower_block ~prefetch:(List.mem bid prefetch_blocks)
              ~pad:(k = 0 && b.is_landing_pad) ~func:f.name b;
          is_landing_pad = b.is_landing_pad;
        })
      blocks
  in
  let frag = Objfile.Fragment.make ~func:f.name pieces in
  Objfile.Section.make ~name:(section_name symbol) ~kind:Objfile.Section.Text ~symbol
    (Objfile.Section.Code frag)

(* One address-map entry per piece, its size and offset read from the
   index [Fragment.make] built. *)
let bbmap_entries (f : Ir.Func.t) (frag : Objfile.Fragment.t) =
  let sizes = frag.index.sizes in
  let[@tail_mod_cons] rec entries k offset = function
    | [] -> []
    | (p : Objfile.Fragment.piece) :: rest ->
      {
        Objfile.Bbmap.bb_id = p.block;
        offset;
        size = sizes.(k);
        can_fallthrough = can_fallthrough (Ir.Func.block f p.block);
        is_landing_pad = p.is_landing_pad;
      }
      :: entries (k + 1) (offset + sizes.(k)) rest
  in
  entries 0 0 frag.pieces

let bbmap_of_sections (f : Ir.Func.t) sections =
  let func_maps =
    List.filter_map
      (fun (s : Objfile.Section.t) ->
        match s.contents, s.symbol with
        | Objfile.Section.Code frag, Some sym ->
          Some { Objfile.Bbmap.func = sym; entries = bbmap_entries f frag }
        | (Objfile.Section.Code _ | Objfile.Section.Map _ | Objfile.Section.Raw _), _ -> None)
      sections
  in
  Objfile.Section.make
    ~name:(".llvm_bb_addr_map." ^ f.name)
    ~kind:Objfile.Section.Bb_addr_map ~align:1
    (Objfile.Section.Map func_maps)

let lower_func ~emit_bb_addr_map ~plan ~default_order ?(prefetch_blocks = []) (f : Ir.Func.t) =
  let texts =
    match plan with
    | None ->
      [ cluster_section ~prefetch_blocks f ~symbol:(Objfile.Symname.primary f.name) default_order ]
    | Some (p : Directive.func_plan) -> (
      match Directive.validate ~num_blocks:(Ir.Func.num_blocks f) p with
      | Error msg -> invalid_arg ("Lower.lower_func: " ^ msg)
      | Ok () ->
        let listed = Hashtbl.create 16 in
        List.iter (fun (c : Directive.cluster) -> List.iter (fun b -> Hashtbl.replace listed b ()) c.blocks) p.clusters;
        let leftovers =
          List.init (Ir.Func.num_blocks f) Fun.id
          |> List.filter (fun b -> not (Hashtbl.mem listed b))
        in
        let has_cold_cluster =
          List.exists (fun (c : Directive.cluster) -> c.kind = Directive.Cold) p.clusters
        in
        let clusters =
          if leftovers = [] then p.clusters
          else if has_cold_cluster then
            (* Fold unlisted blocks into the existing cold cluster. *)
            List.map
              (fun (c : Directive.cluster) ->
                if c.kind = Directive.Cold then { c with blocks = c.blocks @ leftovers } else c)
              p.clusters
          else p.clusters @ [ { Directive.kind = Directive.Cold; blocks = leftovers } ]
        in
        List.map
          (fun (c : Directive.cluster) ->
            cluster_section ~prefetch_blocks f ~symbol:(Directive.symbol f.name c) c.blocks)
          clusters)
  in
  if emit_bb_addr_map then texts @ [ bbmap_of_sections f texts ] else texts
