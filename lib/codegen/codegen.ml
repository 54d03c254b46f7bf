module Directive = Directive
module Lower = Lower
module Inline = Inline

type options = {
  emit_bb_addr_map : bool;
  pgo_layout : bool;
  plans : Directive.t;
  prefetch_sites : (string * int) list;
}

let default_options =
  { emit_bb_addr_map = false; pgo_layout = true; plans = []; prefetch_sites = [] }

let intra_problem (f : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  let sizes = Array.init n (fun i -> Lower.block_code_bytes (Ir.Func.block f i)) in
  let weights = Ir.Cfg.estimate_frequencies ~use_pgo:true f in
  let esrc, edst, ew = Ir.Cfg.edge_frequencies ~freqs:weights ~use_pgo:true f in
  Layout.Problem.make ~sizes ~weights ~esrc ~edst ~ew ~entry:0

(* Ext-TSP block orders, memoized by physical function: IR is immutable
   between builds, so the optimized build reuses every order the
   metadata build computed for the same function. The keys are weak
   (an ephemeron table), so an order lives exactly as long as its
   function; the memo stays process-wide rather than in a build env
   because [compile_unit] also runs with no env. Per-function lowering
   fans out on the pool, so the memo is guarded by a mutex; two domains
   racing on one function compute the same order. *)
module PhysFuncTbl = Ephemeron.K1.Make (struct
  type t = Ir.Func.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let exttsp_orders : int list PhysFuncTbl.t = PhysFuncTbl.create 1024

let exttsp_orders_m = Mutex.create ()

let intra_order ~use_pgo (f : Ir.Func.t) =
  let n = Ir.Func.num_blocks f in
  if (not use_pgo) || f.attrs.has_inline_asm || n = 1 then List.init n Fun.id
  else begin
    Mutex.lock exttsp_orders_m;
    let cached = PhysFuncTbl.find_opt exttsp_orders f in
    Mutex.unlock exttsp_orders_m;
    match cached with
    | Some order -> order
    | None ->
      let order = Layout.Exttsp.order (intra_problem f) in
      Mutex.lock exttsp_orders_m;
      PhysFuncTbl.replace exttsp_orders f order;
      Mutex.unlock exttsp_orders_m;
      order
  end

(* Call frame information model (paper §4.4): one 32-byte CIE per
   object; a 40-byte FDE per contiguous text fragment; fragments beyond
   a function's first re-emit callee-saved CFI and redefine the CFA,
   modelled as 16 extra bytes. *)
let cie_bytes = 32

let fde_bytes ~primary = if primary then 40 else 40 + 16

(* Exception tables (paper §4.5): the call-site table is split per
   section range; each extra range adds header bytes. *)
let except_table_bytes (f : Ir.Func.t) ~num_sections =
  if not f.attrs.has_exceptions then 0
  else begin
    let call_sites =
      List.length (Ir.Func.calls f)
    in
    16 + (8 * call_sites) + (8 * max 0 (num_sections - 1))
  end

let compile_func options (f : Ir.Func.t) =
  (* Hand-written assembly is never reordered: its layout directives
     (if any slipped through) are dropped, like the real backend. *)
  let plan = if f.attrs.has_inline_asm then None else Directive.find options.plans f.name in
  (* A plan fixes the layout; the default order is only needed without. *)
  let default_order =
    match plan with Some _ -> [] | None -> intra_order ~use_pgo:options.pgo_layout f
  in
  let prefetch_blocks =
    List.filter_map
      (fun (fn, bb) -> if String.equal fn f.name then Some bb else None)
      options.prefetch_sites
  in
  Lower.lower_func ~emit_bb_addr_map:options.emit_bb_addr_map ~plan ~default_order
    ~prefetch_blocks f

let compile_unit ~ctx options (u : Ir.Cunit.t) =
  (* Per-function lowering fans out on the pool; section assembly and
     the eh_frame/except accounting stay on the caller, folding in
     function order so emitted objects are identical for any width. *)
  let funcs = Array.of_list u.funcs in
  let lowered =
    Support.Pool.map_array ctx.Support.Ctx.pool (Array.length funcs) (fun i ->
        compile_func options funcs.(i))
  in
  let func_sections =
    List.mapi (fun i f -> (f, lowered.(i))) (Array.to_list funcs)
  in
  let sections = List.concat_map snd func_sections in
  let eh_bytes =
    List.fold_left
      (fun acc (_, secs) ->
        let texts = List.filter Objfile.Section.is_text secs in
        List.fold_left
          (fun (acc, primary) _ -> (acc + fde_bytes ~primary, false))
          (acc, true) texts
        |> fst)
      cie_bytes func_sections
  in
  let except_bytes =
    List.fold_left
      (fun acc (f, secs) ->
        let texts = List.length (List.filter Objfile.Section.is_text secs) in
        acc + except_table_bytes f ~num_sections:texts)
      0 func_sections
  in
  let raw name kind bytes =
    if bytes = 0 then []
    else [ Objfile.Section.make ~name ~kind (Objfile.Section.Raw bytes) ]
  in
  let extra =
    raw ".eh_frame" Objfile.Section.Eh_frame eh_bytes
    @ raw ".gcc_except_table" Objfile.Section.Rodata except_bytes
    @ raw ".rodata" Objfile.Section.Rodata u.rodata
    @ raw ".data" Objfile.Section.Data u.data
  in
  let has_inline_asm = List.exists (fun (f : Ir.Func.t) -> f.attrs.has_inline_asm) u.funcs in
  Objfile.File.make ~name:(u.name ^ ".o") ~unit_name:u.name ~has_inline_asm (sections @ extra)

let compile_program ~ctx options p =
  (* Unit-level fan-out; the per-function batches inside each unit
     run inline on whichever domain compiles the unit (nested pool
     use serializes by design). *)
  let units = Array.of_list (Ir.Program.units p) in
  Array.to_list
    (Support.Pool.map_array ctx.Support.Ctx.pool (Array.length units) (fun i ->
         compile_unit ~ctx options units.(i)))
