type op =
  | Run of int * int * int
  | Do_call of { site_end : int; callee_idx : int array; callee_cum : float array }
  | Do_dload of { site_end : int; miss_prob : float; covered : bool }

type xblock = {
  addr : int;
  size : int;
  ops : op array;
  term : Ir.Term.t;
  term_cum : float array;
      (** For [Switch] terminators: left-to-right partial sums of the case
          probabilities, precomputed so the interpreter's weighted pick is
          pure comparisons (a runtime float accumulator costs a box per
          add on the classic compiler). [[||]] for every other term. *)
  uid : int;
  mutable succ0 : xblock;
      (** Jump target / Branch taken successor (see the .mli); patched
          by [build] once every block exists. *)
  mutable succ1 : xblock;  (** Branch fallthrough successor. *)
  mutable succ_tab : xblock array;  (** Switch successors, table order. *)
}

(* Placeholder successor for blocks whose terminator has none (Return)
   and for records mid-construction; never followed by the interpreter. *)
let rec dummy_xblock =
  {
    addr = 0;
    size = 0;
    ops = [||];
    term = Ir.Term.Return;
    term_cum = [||];
    uid = 0;
    succ0 = dummy_xblock;
    succ1 = dummy_xblock;
    succ_tab = [||];
  }

(* Left-to-right running sums, starting from 0.0 — the identical float
   operation sequence the interpreter's old per-execution accumulation
   performed, so every stateless draw still lands on the same side of
   every partial sum. *)
let cumulative w =
  let n = Array.length w in
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. w.(i);
    cum.(i) <- !acc
  done;
  cum

(* A function's blocks stay [[||]] in [blocks] until it is first
   entered; [infos] and [first_uid] hold what compiling it needs. *)
type t = {
  funcs : (string, int) Hashtbl.t;
  blocks : xblock array array;  (** [blocks.(func_idx).(block_id)], once compiled. *)
  ir : Ir.Func.t array;
  infos : Linker.Binary.block_info array array;  (** Checked at build time. *)
  first_uid : int array;  (** Uid of the function's block 0. *)
  entry : int;
  nblocks : int;
}

(* Fuse the lowered instructions (with final sizes) and the IR body:
   non-control bytes accumulate into Run segments; calls close the
   current segment. The k-th call instruction corresponds to the k-th
   call site of the IR body, which supplies virtual-call targets.
   Callee names are resolved to dense function indices here, at build
   time, so the interpreter never touches a string. *)
let compile_ops ~resolve (ir_block : Ir.Block.t) (insts : Isa.t list) =
  let split_callees (callees : (string * float) array) =
    let n = Array.length callees in
    let idx = Array.make n 0 and w = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let name, wi = callees.(i) in
      idx.(i) <- resolve name;
      w.(i) <- wi
    done;
    (idx, cumulative w)
  in
  let ir_calls =
    List.filter_map
      (fun (i : Ir.Inst.t) ->
        match i with
        | Ir.Inst.DirectCall f -> Some (split_callees [| (f, 1.0) |])
        | Ir.Inst.VirtualCall { callees } -> Some (split_callees callees)
        | Ir.Inst.Compute _ | Ir.Inst.MemLoad _ | Ir.Inst.DelinquentLoad _
        | Ir.Inst.MemStore _ | Ir.Inst.JumpTableData _ -> None)
      ir_block.body
  in
  (* The k-th lowered [Load] corresponds to the k-th IR load; delinquent
     ones carry their miss probability. *)
  let ir_loads =
    List.filter_map
      (fun (i : Ir.Inst.t) ->
        match i with
        | Ir.Inst.MemLoad _ -> Some None
        | Ir.Inst.DelinquentLoad { miss_prob; _ } -> Some (Some miss_prob)
        | Ir.Inst.Compute _ | Ir.Inst.MemStore _ | Ir.Inst.DirectCall _ | Ir.Inst.VirtualCall _
        | Ir.Inst.JumpTableData _ -> None)
      ir_block.body
  in
  let rec loop off run_start nrun pending_calls pending_loads ~saw_prefetch acc = function
    | [] ->
      let acc = if off > run_start then Run (run_start, off - run_start, nrun) :: acc else acc in
      List.rev acc
    | inst :: rest -> (
      let size = Isa.size inst in
      match inst with
      | Isa.Load _ -> (
        match pending_loads with
        | Some miss_prob :: pending ->
          (* Delinquent load: close the run so the miss event lands at
             the right instruction boundary. *)
          let acc =
            if off + size > run_start then Run (run_start, off + size - run_start, nrun + 1) :: acc
            else acc
          in
          loop (off + size) (off + size) 0 pending_calls pending
            ~saw_prefetch
            (Do_dload { site_end = off + size; miss_prob; covered = saw_prefetch } :: acc)
            rest
        | None :: pending ->
          loop (off + size) run_start (nrun + 1) pending_calls pending ~saw_prefetch acc rest
        | [] -> loop (off + size) run_start (nrun + 1) pending_calls [] ~saw_prefetch acc rest)
      | Isa.Prefetch ->
        loop (off + size) run_start (nrun + 1) pending_calls pending_loads ~saw_prefetch:true acc
          rest
      | Isa.Call _ | Isa.IndirectCall -> (
        let acc =
          if off > run_start then Run (run_start, off - run_start, nrun + 1) :: acc else acc
        in
        match pending_calls with
        | (callee_idx, callee_cum) :: pending ->
          loop (off + size) (off + size) 0 pending pending_loads ~saw_prefetch
            (Do_call { site_end = off + size; callee_idx; callee_cum } :: acc)
            rest
        | [] ->
          (* A lowered call with no IR counterpart cannot happen by
             construction. *)
          assert false)
      | Isa.InlineData _ ->
        (* Data in the instruction stream: occupies space, not fetched. *)
        let acc =
          if off > run_start then Run (run_start, off - run_start, nrun) :: acc else acc
        in
        loop (off + size) (off + size) 0 pending_calls pending_loads ~saw_prefetch acc rest
      | Isa.Jcc _ | Isa.Jmp _ | Isa.IndirectJmp | Isa.Ret ->
        (* Terminator instructions count as fetched bytes; the transfer
           itself is driven by the IR terminator. *)
        loop (off + size) run_start (nrun + 1) pending_calls pending_loads ~saw_prefetch acc rest
      | Isa.Alu _ | Isa.Store _ | Isa.Nop _ ->
        loop (off + size) run_start (nrun + 1) pending_calls pending_loads ~saw_prefetch acc rest)
  in
  Array.of_list (loop 0 0 0 ir_calls ir_loads ~saw_prefetch:false [] insts)

(* Compile function [fi]: its blocks' ops, then its terminator targets
   (intra-function block ids) resolved to direct xblock references, so
   the interpreter never re-indexes the block table on a transition. *)
let compile t fi =
  let f = t.ir.(fi) and infos = t.infos.(fi) in
  let resolve name =
    match Hashtbl.find_opt t.funcs name with
    | Some i -> i
    | None -> invalid_arg ("Image.block: call to unknown function " ^ name)
  in
  let fb =
    Array.mapi
      (fun b (info : Linker.Binary.block_info) ->
        let ir_block = Ir.Func.block f b in
        {
          addr = info.addr;
          size = info.size;
          ops = compile_ops ~resolve ir_block info.insts;
          term = ir_block.term;
          term_cum =
            (match ir_block.term with
            | Ir.Term.Switch { probs; _ } -> cumulative probs
            | Ir.Term.Jump _ | Ir.Term.Branch _ | Ir.Term.Return -> [||]);
          uid = t.first_uid.(fi) + b;
          succ0 = dummy_xblock;
          succ1 = dummy_xblock;
          succ_tab = [||];
        })
      infos
  in
  Array.iter
    (fun xb ->
      match xb.term with
      | Ir.Term.Jump next -> xb.succ0 <- fb.(next)
      | Ir.Term.Branch { taken; fallthrough; _ } ->
        xb.succ0 <- fb.(taken);
        xb.succ1 <- fb.(fallthrough)
      | Ir.Term.Switch { table; _ } -> xb.succ_tab <- Array.map (fun b -> fb.(b)) table
      | Ir.Term.Return -> ())
    fb;
  t.blocks.(fi) <- fb;
  fb

let build program binary =
  let ir = Array.of_list (List.rev (Ir.Program.fold_funcs program [] (fun acc f -> f :: acc))) in
  let nf = Array.length ir in
  let funcs = Hashtbl.create nf in
  Array.iteri (fun i (f : Ir.Func.t) -> Hashtbl.replace funcs f.name i) ir;
  (* Every block must be in the binary, and uids number the blocks in
     program order from 1. *)
  let first_uid = Array.make nf 0 in
  let nblocks = ref 0 in
  let infos =
    Array.mapi
      (fun fi (f : Ir.Func.t) ->
        first_uid.(fi) <- !nblocks + 1;
        nblocks := !nblocks + Ir.Func.num_blocks f;
        let pos = Linker.Binary.block_positions binary f.name in
        Array.init (Ir.Func.num_blocks f) (fun b ->
            if b < Array.length pos && pos.(b) >= 0 then binary.blocks.(pos.(b))
            else invalid_arg (Printf.sprintf "Image.build: block %s#%d not in binary" f.name b)))
      ir
  in
  {
    funcs;
    blocks = Array.make nf [||];
    ir;
    infos;
    first_uid;
    entry = Hashtbl.find funcs (Ir.Program.main program);
    nblocks = !nblocks;
  }

let func_index t name =
  match Hashtbl.find_opt t.funcs name with
  | Some i -> i
  | None -> invalid_arg ("Image.func_index: unknown function " ^ name)

let[@inline] block t ~func_idx ~block =
  let fb = t.blocks.(func_idx) in
  (if Array.length fb = 0 then compile t func_idx else fb).(block)

let entry_func t = t.entry

let num_blocks t = t.nblocks
